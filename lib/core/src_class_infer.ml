let teacher =
  {
    Clustered_view_gen.teacher_name = "src-class";
    prepare =
      (fun table ~h ->
        let column =
          Learn.Classifier.column
            (Array.map (Clustered_view_gen.feature_of table ~h) (Relational.Table.rows table))
        in
        Obs.Metrics.add "infer.tokens_encoded" (Learn.Classifier.tokens_encoded column);
        fun ~label_of ~train ->
          let classifier = Learn.Classifier.create column in
          Array.iter (fun i -> Learn.Classifier.train classifier ~label:(label_of i) i) train;
          Learn.Classifier.classify classifier);
  }

let infer =
  {
    Infer.infer_name = "src-class";
    infer =
      (fun rng config ~source_table ~matches ->
        if matches = [] then []
        else Clustered_view_gen.generate rng config teacher source_table);
  }

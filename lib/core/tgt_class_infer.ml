open Relational

type tagger = {
  dict : Textsim.Gram_dict.t;  (** the target's text grams *)
  text : Learn.Naive_bayes.t;
  numeric : Learn.Gaussian_nb.t;
}

let make_tagger target_db =
  let numeric = Learn.Gaussian_nb.create () in
  (* Collect the target's text values first, so their grams can be
     interned before the naive Bayes tables are sized. *)
  let documents = ref [] in
  List.iter
    (fun table ->
      let table_name = Table.name table in
      Array.iter
        (fun (attr : Attribute.t) ->
          let label = Printf.sprintf "%s.%s" table_name attr.name in
          Array.iter
            (fun v ->
              match v with
              | Value.Null -> ()
              | Value.Int n -> Learn.Gaussian_nb.train numeric ~label (float_of_int n)
              | Value.Float f -> Learn.Gaussian_nb.train numeric ~label f
              | Value.String s -> documents := (label, s) :: !documents
              | Value.Bool b -> documents := (label, string_of_bool b) :: !documents)
            (Table.column table attr.name))
        (Schema.attributes (Table.schema table)))
    (Database.tables target_db);
  let documents = Array.of_list (List.rev !documents) in
  let dict, ids =
    Textsim.Gram_dict.intern (fun (_, s) -> Textsim.Tokenize.trigrams s) documents
  in
  let text = Learn.Naive_bayes.create ~ids:(Textsim.Gram_dict.size dict) () in
  Array.iteri (fun i (label, _) -> Learn.Naive_bayes.train text ~label ids.(i)) documents;
  { dict; text; numeric }

let text_ids tagger s = Textsim.Gram_dict.encode tagger.dict (Textsim.Tokenize.trigrams s)

let tag tagger feature =
  match feature with
  | Learn.Classifier.Missing -> None
  | Learn.Classifier.Text s -> Learn.Naive_bayes.classify tagger.text (text_ids tagger s)
  | Learn.Classifier.Number x -> Learn.Gaussian_nb.classify tagger.numeric x

(* TBag statistics: for tag g and label v, score(g,v) = P(v|g) * P(g|v);
   bestCAT(g) maximises the score with ties to the more common label. *)
module Tbag = struct
  type t = {
    pair_counts : (string * string, int) Hashtbl.t;
    tag_counts : (string, int) Hashtbl.t;
    label_counts : (string, int) Hashtbl.t;
    mutable total : int;
  }

  let create () =
    {
      pair_counts = Hashtbl.create 64;
      tag_counts = Hashtbl.create 16;
      label_counts = Hashtbl.create 16;
      total = 0;
    }

  let bump table key =
    let n = try Hashtbl.find table key with Not_found -> 0 in
    Hashtbl.replace table key (n + 1)

  let observe t ~tag ~label =
    bump t.pair_counts (tag, label);
    bump t.tag_counts tag;
    bump t.label_counts label;
    t.total <- t.total + 1

  let count table key = try Hashtbl.find table key with Not_found -> 0

  let score t ~tag ~label =
    let c_gv = count t.pair_counts (tag, label) in
    let c_g = count t.tag_counts tag in
    let c_v = count t.label_counts label in
    if c_g = 0 || c_v = 0 then 0.0
    else begin
      let acc = float_of_int c_gv /. float_of_int c_g in
      let prec = float_of_int c_gv /. float_of_int c_v in
      acc *. prec
    end

  let most_common_label t =
    Hashtbl.fold
      (fun label n best ->
        match best with
        | Some (_, bn) when bn > n -> best
        | Some (bl, bn) when bn = n && String.compare bl label <= 0 -> best
        | Some _ | None -> Some (label, n))
      t.label_counts None
    |> Option.map fst

  let best_cat t tag =
    let candidates =
      Hashtbl.fold
        (fun label n acc -> (label, score t ~tag ~label, n) :: acc)
        t.label_counts []
    in
    let sorted =
      List.sort
        (fun (l1, s1, n1) (l2, s2, n2) ->
          match Float.compare s2 s1 with
          | 0 -> ( match Int.compare n2 n1 with 0 -> String.compare l1 l2 | c -> c)
          | c -> c)
        candidates
    in
    match sorted with
    | (label, s, _) :: _ when s > 0.0 -> Some label
    | (_, _, _) :: _ | [] -> most_common_label t
end

let teacher target_db =
  let tagger = make_tagger target_db in
  {
    Clustered_view_gen.teacher_name = "tgt-class";
    prepare =
      (fun table ~h ->
        (* The tagger is fixed, so each distinct h-value is tagged once
           per call and every evaluation reuses the tag. *)
        let features =
          Array.map (Clustered_view_gen.feature_of table ~h) (Relational.Table.rows table)
        in
        let by_value = Hashtbl.create 64 in
        let tags = Array.make (Array.length features) None in
        let tag_of i =
          match tags.(i) with
          | Some g -> g
          | None ->
            let feature = features.(i) in
            let g =
              match Hashtbl.find_opt by_value feature with
              | Some g -> g
              | None ->
                let g =
                  match feature with
                  | Learn.Classifier.Text s ->
                    let ids = text_ids tagger s in
                    Obs.Metrics.add "infer.tokens_encoded" (Array.length ids);
                    Learn.Naive_bayes.classify tagger.text ids
                  | Learn.Classifier.Number _ | Learn.Classifier.Missing -> tag tagger feature
                in
                Hashtbl.add by_value feature g;
                g
            in
            tags.(i) <- Some g;
            g
        in
        fun ~label_of ~train ->
          let tbag = Tbag.create () in
          Array.iter
            (fun i ->
              match tag_of i with
              | None -> ()
              | Some g -> Tbag.observe tbag ~tag:g ~label:(label_of i))
            train;
          fun i ->
            match tag_of i with
            | None -> Tbag.most_common_label tbag
            | Some g -> Tbag.best_cat tbag g);
  }

let infer target_db =
  let teacher = teacher target_db in
  {
    Infer.infer_name = "tgt-class";
    infer =
      (fun rng config ~source_table ~matches ->
        if matches = [] then []
        else Clustered_view_gen.generate rng config teacher source_table);
  }

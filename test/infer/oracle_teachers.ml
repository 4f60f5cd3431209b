(* SrcClassInfer and TgtClassInfer teachers as they were before the
   classifier was interned: every (h, l) evaluation re-cuts the 3-grams
   of each row it trains on or classifies, and both the naive Bayes
   model and the target tagger are the string-keyed {!Nb_oracle}.  The
   shipped teachers must produce the same verdicts bit for bit. *)

open Relational
module F = Learn.Classifier

(* The text/number dispatch of the pre-interning [Learn.Classifier]. *)
module Classifier = struct
  type t = {
    text : Nb_oracle.t;
    numeric : Learn.Gaussian_nb.t;
  }

  let create () = { text = Nb_oracle.create (); numeric = Learn.Gaussian_nb.create () }
  let qgrams = Textsim.Tokenize.qgrams 3

  let train t ~label = function
    | F.Missing -> ()
    | F.Text s -> Nb_oracle.train t.text ~label (qgrams s)
    | F.Number x -> Learn.Gaussian_nb.train t.numeric ~label x

  let classify t = function
    | F.Missing -> None
    | F.Text s ->
      if Nb_oracle.document_count t.text > 0 then Nb_oracle.classify t.text (qgrams s)
      else (
        match float_of_string_opt (String.trim s) with
        | Some x -> Learn.Gaussian_nb.classify t.numeric x
        | None -> None)
    | F.Number x ->
      if Learn.Gaussian_nb.sample_count t.numeric > 0 then Learn.Gaussian_nb.classify t.numeric x
      else Nb_oracle.classify t.text (qgrams (Printf.sprintf "%g" x))
end

let feature table ~h i = Ctxmatch.Clustered_view_gen.feature_of table ~h (Table.rows table).(i)

let src_teacher =
  {
    Ctxmatch.Clustered_view_gen.teacher_name = "src-class-oracle";
    prepare =
      (fun table ~h ~label_of ~train ->
        let classifier = Classifier.create () in
        Array.iter
          (fun i ->
            match feature table ~h i with
            | F.Missing -> ()
            | f -> Classifier.train classifier ~label:(label_of i) f)
          train;
        fun i -> Classifier.classify classifier (feature table ~h i));
  }

type tagger = {
  text : Nb_oracle.t;
  numeric : Learn.Gaussian_nb.t;
}

let make_tagger target_db =
  let text = Nb_oracle.create () in
  let numeric = Learn.Gaussian_nb.create () in
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
              | Value.String s -> Nb_oracle.train text ~label (Textsim.Tokenize.trigrams s)
              | Value.Bool b ->
                Nb_oracle.train text ~label (Textsim.Tokenize.trigrams (string_of_bool b)))
            (Table.column table attr.name))
        (Schema.attributes (Table.schema table)))
    (Database.tables target_db);
  { text; numeric }

let tag tagger = function
  | F.Missing -> None
  | F.Text s -> Nb_oracle.classify tagger.text (Textsim.Tokenize.trigrams s)
  | F.Number x -> Learn.Gaussian_nb.classify tagger.numeric x

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

let tgt_teacher target_db =
  let tagger = make_tagger target_db in
  {
    Ctxmatch.Clustered_view_gen.teacher_name = "tgt-class-oracle";
    prepare =
      (fun table ~h ~label_of ~train ->
        let tbag = Tbag.create () in
        Array.iter
          (fun i ->
            match tag tagger (feature table ~h i) with
            | None -> ()
            | Some g -> Tbag.observe tbag ~tag:g ~label:(label_of i))
          train;
        fun i ->
          match tag tagger (feature table ~h i) with
          | None -> Tbag.most_common_label tbag
          | Some g -> Tbag.best_cat tbag g);
  }

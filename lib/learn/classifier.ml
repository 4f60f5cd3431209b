type feature =
  | Text of string
  | Number of float
  | Missing

type column = {
  q : int;
  features : feature array;
  dict : Textsim.Gram_dict.t;
  tokens : int array array;
  encoded : int;
}

let column ?(q = 3) features =
  (* Cut every distinct text value once; rows holding the same value
     share its id array. *)
  let values = Hashtbl.create 64 in
  let distinct = ref [] in
  Array.iter
    (function
      | Text s when not (Hashtbl.mem values s) ->
        Hashtbl.add values s (Hashtbl.length values);
        distinct := s :: !distinct
      | Text _ | Number _ | Missing -> ())
    features;
  let dict, ids =
    Textsim.Gram_dict.intern (Textsim.Tokenize.qgrams q) (Array.of_list (List.rev !distinct))
  in
  let tokens =
    Array.map
      (function Text s -> ids.(Hashtbl.find values s) | Number _ | Missing -> [||])
      features
  in
  let encoded = Array.fold_left (fun n ids -> n + Array.length ids) 0 ids in
  { q; features; dict; tokens; encoded }

let tokens_encoded c = c.encoded

type t = {
  column : column;
  text : Naive_bayes.t;
  numeric : Gaussian_nb.t;
}

let create ?alpha column =
  {
    column;
    text = Naive_bayes.create ?alpha ~ids:(Textsim.Gram_dict.size column.dict) ();
    numeric = Gaussian_nb.create ();
  }

let train t ~label row =
  match t.column.features.(row) with
  | Missing -> ()
  | Text _ -> Naive_bayes.train t.text ~label t.column.tokens.(row)
  | Number x -> Gaussian_nb.train t.numeric ~label x

let trained t = Naive_bayes.document_count t.text > 0 || Gaussian_nb.sample_count t.numeric > 0

let labels t =
  List.sort_uniq String.compare (Naive_bayes.labels t.text @ Gaussian_nb.labels t.numeric)

let classify t row =
  match t.column.features.(row) with
  | Missing -> None
  | Text s ->
    if Naive_bayes.document_count t.text > 0 then Naive_bayes.classify t.text t.column.tokens.(row)
    else (
      (* All training data was numeric; try to read the text as a number. *)
      match float_of_string_opt (String.trim s) with
      | Some x -> Gaussian_nb.classify t.numeric x
      | None -> None)
  | Number x ->
    if Gaussian_nb.sample_count t.numeric > 0 then Gaussian_nb.classify t.numeric x
    else
      Naive_bayes.classify t.text
        (Textsim.Gram_dict.encode t.column.dict (Textsim.Tokenize.qgrams t.column.q (Printf.sprintf "%g" x)))

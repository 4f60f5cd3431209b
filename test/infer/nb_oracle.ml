(* The string-keyed multinomial naive Bayes that Learn.Naive_bayes
   replaced, kept verbatim as the differential oracle of the id-keyed
   classifier.  Linked into test/infer only. *)

type label_stats = {
  mutable docs : int;  (** training documents with this label *)
  mutable tokens : int;  (** total token occurrences under this label *)
  counts : (string, int) Hashtbl.t;  (** per-token occurrence counts *)
}

type t = {
  alpha : float;
  by_label : (string, label_stats) Hashtbl.t;
  vocabulary : (string, unit) Hashtbl.t;
  mutable total_docs : int;
}

let create ?(alpha = 1.0) () =
  { alpha; by_label = Hashtbl.create 16; vocabulary = Hashtbl.create 1024; total_docs = 0 }

let stats_for t label =
  match Hashtbl.find_opt t.by_label label with
  | Some s -> s
  | None ->
    let s = { docs = 0; tokens = 0; counts = Hashtbl.create 64 } in
    Hashtbl.add t.by_label label s;
    s

let train t ~label tokens =
  let s = stats_for t label in
  s.docs <- s.docs + 1;
  t.total_docs <- t.total_docs + 1;
  List.iter
    (fun tok ->
      Hashtbl.replace t.vocabulary tok ();
      let n = try Hashtbl.find s.counts tok with Not_found -> 0 in
      Hashtbl.replace s.counts tok (n + 1);
      s.tokens <- s.tokens + 1)
    tokens

let labels t =
  Hashtbl.fold (fun label _ acc -> label :: acc) t.by_label [] |> List.sort String.compare

let document_count t = t.total_docs

let log_posteriors t tokens =
  if t.total_docs = 0 then []
  else begin
    let vocab = float_of_int (max 1 (Hashtbl.length t.vocabulary)) in
    let scored =
      Hashtbl.fold
        (fun label s acc ->
          let prior = log (float_of_int s.docs /. float_of_int t.total_docs) in
          let denom = float_of_int s.tokens +. (t.alpha *. vocab) in
          let log_likelihood =
            List.fold_left
              (fun acc tok ->
                let n = try Hashtbl.find s.counts tok with Not_found -> 0 in
                acc +. log ((float_of_int n +. t.alpha) /. denom))
              0.0 tokens
          in
          (label, prior +. log_likelihood) :: acc)
        t.by_label []
    in
    (* Best first; ties go to the more frequent label, then lexicographic,
       so classification is deterministic. *)
    List.sort
      (fun (l1, s1) (l2, s2) ->
        match Float.compare s2 s1 with
        | 0 -> (
          let d1 = (Hashtbl.find t.by_label l1).docs and d2 = (Hashtbl.find t.by_label l2).docs in
          match Int.compare d2 d1 with 0 -> String.compare l1 l2 | c -> c)
        | c -> c)
      scored
  end

let classify t tokens =
  match log_posteriors t tokens with [] -> None | (label, _) :: _ -> Some label

let classify_with_margin t tokens =
  match log_posteriors t tokens with
  | [] -> None
  | [ (label, _) ] -> Some (label, Float.infinity)
  | (label, s1) :: (_, s2) :: _ -> Some (label, s1 -. s2)

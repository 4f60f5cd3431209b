type label_stats = {
  name : string;
  mutable docs : int;  (** training documents with this label *)
  mutable tokens : int;  (** total token occurrences under this label *)
  counts : int array;  (** per-id occurrence counts *)
  mutable max_count : int;  (** largest entry of [counts] *)
  mutable log_terms : float array;
      (** [log_terms.(n)] = [log ((n + alpha) / denom)], filled on first
          use; NaN marks an entry not computed yet *)
}

type t = {
  alpha : float;
  ids : int;
  by_label : (string, label_stats) Hashtbl.t;
  seen : Bytes.t;  (** ids met in training *)
  mutable vocabulary : int;  (** distinct ids met in training *)
  mutable total_docs : int;
  mutable fresh : bool;  (** [log_terms] match the current counts *)
}

let create ?(alpha = 1.0) ~ids () =
  if ids < 0 then invalid_arg "Naive_bayes.create: negative id count";
  {
    alpha;
    ids;
    by_label = Hashtbl.create 16;
    seen = Bytes.make ids '\000';
    vocabulary = 0;
    total_docs = 0;
    fresh = false;
  }

let stats_for t label =
  match Hashtbl.find_opt t.by_label label with
  | Some s -> s
  | None ->
    let s =
      {
        name = label;
        docs = 0;
        tokens = 0;
        counts = Array.make t.ids 0;
        max_count = 0;
        log_terms = [||];
      }
    in
    Hashtbl.add t.by_label label s;
    s

let train t ~label ids =
  let s = stats_for t label in
  t.fresh <- false;
  s.docs <- s.docs + 1;
  t.total_docs <- t.total_docs + 1;
  Array.iter
    (fun id ->
      if id < 0 || id >= t.ids then invalid_arg "Naive_bayes.train: id out of range";
      if Bytes.get t.seen id = '\000' then begin
        Bytes.set t.seen id '\001';
        t.vocabulary <- t.vocabulary + 1
      end;
      let n = s.counts.(id) + 1 in
      s.counts.(id) <- n;
      if n > s.max_count then s.max_count <- n;
      s.tokens <- s.tokens + 1)
    ids

let labels t =
  Hashtbl.fold (fun label _ acc -> label :: acc) t.by_label [] |> List.sort String.compare

let document_count t = t.total_docs

(* Every label's log term of count n depends on n, the label's token
   total and the vocabulary only, so after training each is computed at
   most once per distinct n. *)
let refresh t =
  if not t.fresh then begin
    Hashtbl.iter (fun _ s -> s.log_terms <- Array.make (s.max_count + 1) Float.nan) t.by_label;
    t.fresh <- true
  end

(* Unnormalised log posterior of every label, in no particular order. *)
let scores t ids =
  refresh t;
  let vocab = float_of_int (max 1 t.vocabulary) in
  Hashtbl.fold
    (fun _ s acc ->
      let prior = log (float_of_int s.docs /. float_of_int t.total_docs) in
      let denom = float_of_int s.tokens +. (t.alpha *. vocab) in
      (* Fold in token order with the per-token expression unchanged, so
         the sum is the same float as a string-keyed fold over the same
         tokens. *)
      let log_likelihood =
        Array.fold_left
          (fun acc id ->
            let n = if id >= 0 && id < t.ids then s.counts.(id) else 0 in
            let term = s.log_terms.(n) in
            let term =
              if Float.is_nan term then begin
                let term = log ((float_of_int n +. t.alpha) /. denom) in
                s.log_terms.(n) <- term;
                term
              end
              else term
            in
            acc +. term)
          0.0 ids
      in
      (s, prior +. log_likelihood) :: acc)
    t.by_label []

(* Best first; ties go to the more frequent label, then lexicographic,
   so classification is deterministic.  Labels are distinct, so this is
   a total order. *)
let compare_ranked (s1, p1) (s2, p2) =
  match Float.compare p2 p1 with
  | 0 -> ( match Int.compare s2.docs s1.docs with 0 -> String.compare s1.name s2.name | c -> c)
  | c -> c

let log_posteriors t ids =
  if t.total_docs = 0 then []
  else List.map (fun (s, p) -> (s.name, p)) (List.sort compare_ranked (scores t ids))

let classify t ids =
  if t.total_docs = 0 then None
  else
    match scores t ids with
    | [] -> None
    | first :: rest ->
      let s, _ = List.fold_left (fun best c -> if compare_ranked c best < 0 then c else best) first rest in
      Some s.name

let classify_with_margin t ids =
  match log_posteriors t ids with
  | [] -> None
  | [ (label, _) ] -> Some (label, Float.infinity)
  | (label, s1) :: (_, s2) :: _ -> Some (label, s1 -. s2)

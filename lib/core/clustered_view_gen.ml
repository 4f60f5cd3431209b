open Relational

type trainer = label_of:(int -> string) -> train:int array -> int -> string option

type teacher = {
  teacher_name : string;
  prepare : Table.t -> h:string -> trainer;
}

type verdict = {
  h_attr : string;
  l_attr : string;
  quality : float;
  null_likelihood : float;
  significant : bool;
  confusion : Stats.Confusion.t;
}

let feature_of table ~h =
  let i = Schema.index_of (Table.schema table) h in
  fun row ->
    match row.(i) with
    | Value.Null -> Learn.Classifier.Missing
    | Value.Int n -> Learn.Classifier.Number (float_of_int n)
    | Value.Float f -> Learn.Classifier.Number f
    | Value.String s -> Learn.Classifier.Text s
    | Value.Bool b -> Learn.Classifier.Text (string_of_bool b)

(* The state of one [generate] call: the teacher's encoding of each h,
   prepared on the first evaluation that needs it and shared by every
   later (h, l) evaluation.  It is dropped when the call returns. *)
type scope = {
  config : Config.t;
  teacher : teacher;
  table : Table.t;
  trainers : (string, trainer) Hashtbl.t;
}

let scope config teacher table = { config; teacher; table; trainers = Hashtbl.create 8 }

let trainer scope h =
  match Hashtbl.find_opt scope.trainers h with
  | Some trainer -> trainer
  | None ->
    let trainer =
      Obs.Trace.with_span "infer.encode" (fun () -> scope.teacher.prepare scope.table ~h)
    in
    Hashtbl.add scope.trainers h trainer;
    trainer

let evaluate_in scope rng ~h ~l ~label_map =
  let config = scope.config in
  let rows = Table.rows scope.table in
  let l_idx = Schema.index_of (Table.schema scope.table) l in
  let labelled =
    Array.of_list
      (List.filter
         (fun i -> not (Value.is_null rows.(i).(l_idx)))
         (List.init (Array.length rows) Fun.id))
  in
  if Array.length labelled < 4 then None
  else begin
    let labels = Array.make (Array.length rows) "" in
    Array.iter (fun i -> labels.(i) <- label_map rows.(i).(l_idx)) labelled;
    let label_of i = labels.(i) in
    let distinct_labels =
      Array.to_list labelled |> List.map label_of |> List.sort_uniq String.compare
    in
    if List.length distinct_labels < 2 then None
    else begin
      let train, test =
        Stats.Sampling.stratified_split rng ~label:label_of
          ~train_fraction:config.Config.train_fraction labelled
      in
      if Array.length train = 0 || Array.length test = 0 then None
      else begin
        let trainer = trainer scope h in
        Obs.Metrics.incr "infer.evaluations";
        Obs.Trace.with_span "infer.evaluate" @@ fun () ->
        let predict = Obs.Trace.with_span "infer.train" (fun () -> trainer ~label_of ~train) in
        let prior = Learn.Evaluation.majority_prior (Array.map label_of train) in
        let outcome =
          Obs.Trace.with_span "infer.classify" (fun () ->
              Learn.Evaluation.test ~threshold:config.Config.significance ~classify:predict
                ~label_of ~majority_prior:prior test)
        in
        Some
          {
            h_attr = h;
            l_attr = l;
            quality = outcome.Learn.Evaluation.quality;
            null_likelihood = outcome.Learn.Evaluation.null_likelihood;
            significant = outcome.Learn.Evaluation.significant;
            confusion = outcome.Learn.Evaluation.confusion;
          }
      end
    end
  end

let evaluate rng config teacher table ~h ~l ~label_map =
  evaluate_in (scope config teacher table) rng ~h ~l ~label_map

let categorical_attributes (config : Config.t) table =
  Categorical.categorical_attributes ~params:config.Config.categorical_params table

let best_verdict_in scope rng ~categorical ~l =
  let candidates =
    Schema.attribute_names (Table.schema scope.table)
    |> List.filter (fun h -> h <> l && not (List.mem h categorical))
  in
  List.fold_left
    (fun best h ->
      (* A fresh split per h keeps verdicts independent. *)
      let verdict = evaluate_in scope (Stats.Rng.split rng) ~h ~l ~label_map:Value.to_string in
      match verdict with
      | Some v when v.significant -> (
        match best with
        | Some b when b.quality >= v.quality -> best
        | Some _ | None -> Some v)
      | Some _ | None -> best)
    None candidates

let best_verdict rng config teacher table ~l =
  best_verdict_in (scope config teacher table) rng
    ~categorical:(categorical_attributes config table) ~l

(* --- EarlyDisjuncts label merging (paper §3.3) ----------------------- *)

(* Groups of l-values; the classification label of a group is the sorted
   concatenation of its members' display strings. *)
module Groups = struct
  type t = Value.t list list

  let initial values : t = List.map (fun v -> [ v ]) values

  let label_of_group group =
    group |> List.map Value.to_string |> List.sort String.compare |> String.concat "|"

  (* One lookup table per grouping: a value's display string maps to the
     label of the first group holding a member with that string. *)
  let label_map (groups : t) =
    let labels = Hashtbl.create 16 in
    List.iter
      (fun g ->
        let label = label_of_group g in
        List.iter
          (fun v ->
            let s = Value.to_string v in
            if not (Hashtbl.mem labels s) then Hashtbl.add labels s label)
          g)
      groups;
    fun value ->
      let s = Value.to_string value in
      match Hashtbl.find_opt labels s with Some label -> label | None -> s

  let merge (groups : t) label1 label2 : t option =
    let g1 = List.find_opt (fun g -> label_of_group g = label1) groups in
    let g2 = List.find_opt (fun g -> label_of_group g = label2) groups in
    match (g1, g2) with
    | Some g1, Some g2 when g1 != g2 ->
      let rest = List.filter (fun g -> g != g1 && g != g2) groups in
      Some ((g1 @ g2) :: rest)
    | _, _ -> None
end

let merged_families_in scope rng ~l ~h =
  let values = Table.distinct_values scope.table l in
  let rec loop groups label_map acc =
    if List.length groups < 2 then List.rev acc
    else begin
      match evaluate_in scope (Stats.Rng.split rng) ~h ~l ~label_map with
      | None -> List.rev acc
      | Some verdict -> (
        match Stats.Confusion.normalized_error_pairs verdict.confusion with
        | [] -> List.rev acc (* no errors: nothing left to merge *)
        | ((v, v'), _) :: _ -> (
          match Groups.merge groups v v' with
          | None ->
            (* The confused pair involves the abstain label or labels we
               cannot merge; stop. *)
            List.rev acc
          | Some merged ->
            (* Re-evaluate the merged grouping; if significant, its view
               family is a candidate. *)
            let label_map' = Groups.label_map merged in
            let family =
              match evaluate_in scope (Stats.Rng.split rng) ~h ~l ~label_map:label_map' with
              | Some verdict' when verdict'.significant ->
                Some (View.family_of_values ~quality:verdict'.quality scope.table l merged)
              | Some _ | None -> None
            in
            let acc = match family with Some f -> f :: acc | None -> acc in
            loop merged label_map' acc))
    end
  in
  let groups = Groups.initial values in
  loop groups (Groups.label_map groups) []

let merged_families rng config teacher table ~l ~h =
  merged_families_in (scope config teacher table) rng ~l ~h

let generate rng (config : Config.t) teacher table =
  let scope = scope config teacher table in
  let categorical = categorical_attributes config table in
  List.concat_map
    (fun l ->
      match best_verdict_in scope (Stats.Rng.split rng) ~categorical ~l with
      | None -> []
      | Some verdict ->
        let simple = View.partition_family ~quality:verdict.quality table l in
        let merged =
          if config.Config.early_disjuncts then
            merged_families_in scope (Stats.Rng.split rng) ~l ~h:verdict.h_attr
          else []
        in
        simple :: merged)
    categorical

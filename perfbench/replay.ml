(* The traced replay: one operation recomposed from each layer's public
   function, in the order [Ctxmatch.Context_match.run] and the serve
   daemon call them, with a benchmark span around every call.  The
   composition must reproduce the untraced operation's matches exactly;
   [Main] checks that on every replayed operation. *)

open Relational

let config = Ctxmatch.Config.(with_jobs (with_seed default 42) 1)

type match_figures = {
  matches : Matching.Schema_match.t list;
  pairs_scored : int;
  cache_lookups : int;
  cache_hits : int;
  profile_builds : int;
  families : int;
  views : int;
  useful_views : int;
  selected : int;
  warm_families_ms : float;
  score_pairs_ms : float;
}

(* Summed duration of the program's own Obs spans called [name] since
   the last [Obs.Recorder.reset]; 0 while the recorder is off. *)
let obs_span_ms name =
  List.fold_left
    (fun acc (e : Obs.Recorder.event) ->
      if e.Obs.Recorder.name = name then acc +. (Int64.to_float e.Obs.Recorder.dur_ns /. 1e6)
      else acc)
    0.0 (Obs.Recorder.events ())

let decode_tables ~op tables =
  Span.with_span ~op "relational.csv_io.decode" (fun () ->
      List.map
        (fun (name, csv) -> fst (Csv_io.table_of_csv_report ~mode:Csv_io.Strict ~name csv))
        tables)

let prepare_target ~op target =
  Span.with_span ~op "matching.prepare_target" (fun () ->
      Matching.Standard_match.prepare_target ~kernel:true ~target ())

(* Fig. 5 over a prepared target, as [Context_match.run] runs it with
   [jobs = 1]: a failing inference or view is skipped, as the program's
   containment skips it. *)
let context_match ~op ~infer ~prepared ~source =
  let target = Matching.Standard_match.prepared_target_db prepared in
  let report = Robust.Report.create () in
  let model =
    Span.with_span ~op "matching.build" (fun () ->
        Matching.Standard_match.build ~gated:config.Ctxmatch.Config.gated_confidence
          ~matchers:config.Ctxmatch.Config.matchers ~jobs:1 ~report ~kernel:true ~prepared
          ~source ~target ())
  in
  let warm_families_ms = obs_span_ms "warm_families" in
  let score_pairs_ms = obs_span_ms "score_pairs" in
  let cache_hits, cache_misses = Matching.Standard_match.cache_stats model in
  let profile_builds = Matching.Standard_match.profile_builds model in
  let rng = Stats.Rng.create config.Ctxmatch.Config.seed in
  let rev_standard = ref [] and all_scored = ref [] in
  let families_n = ref 0 and views_n = ref 0 and useful = ref 0 in
  List.iter
    (fun source_table ->
      let src_table = Table.name source_table in
      let m =
        Span.with_span ~op "matching.matches_from" (fun () ->
            Matching.Standard_match.matches_from model ~src_table
              ~tau:config.Ctxmatch.Config.tau)
      in
      rev_standard := m :: !rev_standard;
      let families =
        Span.with_span ~op "core.infer" (fun () ->
            try infer.Ctxmatch.Infer.infer (Stats.Rng.split rng) config ~source_table ~matches:m
            with _ -> [])
      in
      families_n := !families_n + List.length families;
      let family_attr view =
        match List.find_opt (fun f -> List.memq view f.View.views) families with
        | Some f -> f.View.attribute
        | None -> ""
      in
      List.iter
        (fun view ->
          incr views_n;
          match
            Span.with_span ~op "matching.view_matches" (fun () ->
                Matching.Standard_match.view_matches model view ~base_matches:m)
          with
          | [] | (exception _) -> ()
          | view_matches ->
            incr useful;
            all_scored :=
              { Ctxmatch.Select_matches.view; family_attr = family_attr view; view_matches }
              :: !all_scored)
        (Ctxmatch.Infer.views_of_families families))
    (Database.tables source);
  let standard = List.concat (List.rev !rev_standard) in
  let matches =
    Span.with_span ~op "core.select_matches" (fun () ->
        Ctxmatch.Select_matches.qual_table ~jobs:1 ~omega:config.Ctxmatch.Config.omega
          ~early_disjuncts:config.Ctxmatch.Config.early_disjuncts ~standard
          ~scored:(List.rev !all_scored) ~target_tables:(Database.table_names target) ())
  in
  {
    matches;
    pairs_scored = Matching.Standard_match.pairs_scored model;
    cache_lookups = cache_hits + cache_misses;
    cache_hits;
    profile_builds;
    families = !families_n;
    views = !views_n;
    useful_views = !useful;
    selected = List.length matches;
    warm_families_ms;
    score_pairs_ms;
  }

let fingerprint matches = List.map Matching.Schema_match.to_string matches

(* The codec work of one served round trip: the client renders the
   request, the daemon parses it, renders its reply, and the client
   parses that. *)
let encode ~op json = Span.with_span ~op "serve.json.encode" (fun () -> Serve.Json.to_string json)

let decode_request ~op line =
  Span.with_span ~op "serve.json.decode" (fun () ->
      match Serve.Protocol.request_of_line line with
      | Ok request -> request
      | Error r -> failwith (Serve.Json.to_string (Serve.Protocol.reject_to_json r)))

let decode_reply ~op line = Span.with_span ~op "serve.json.decode" (fun () -> Serve.Json.parse line)

(* A served [match] request, replayed against [prepared]. *)
let served_match ~op ~prepared request =
  match decode_request ~op (encode ~op request) with
  | Serve.Protocol.Match mr ->
    let tables =
      decode_tables ~op
        (List.map (fun tp -> (tp.Serve.Protocol.tp_name, tp.Serve.Protocol.tp_csv)) mr.Serve.Protocol.mr_tables)
    in
    let source = Database.make "source" tables in
    let infer =
      Ctxmatch.Context_match.infer_of mr.Serve.Protocol.mr_algorithm
        ~target:(Matching.Standard_match.prepared_target_db prepared)
    in
    let figures = context_match ~op ~infer ~prepared ~source in
    let reply =
      Serve.Json.Obj
        [
          ("ok", Serve.Json.Bool true);
          ("target", Serve.Json.String mr.Serve.Protocol.mr_target);
          ( "matches",
            Serve.Json.List (List.map (fun s -> Serve.Json.String s) (fingerprint figures.matches)) );
          ("pairs_scored", Serve.Json.Int figures.pairs_scored);
        ]
    in
    ignore (decode_reply ~op (encode ~op reply));
    figures
  | _ -> failwith "replay: not a match request"

let typed_cell (attr : Attribute.t) cell =
  match (cell, attr.Attribute.ty) with
  | Serve.Json.Null, _ -> Value.Null
  | Serve.Json.Int v, Value.Tint -> Value.Int v
  | Serve.Json.Int v, Value.Tfloat -> Value.Float (float_of_int v)
  | Serve.Json.Float v, Value.Tfloat -> Value.Float v
  | Serve.Json.Bool v, Value.Tbool -> Value.Bool v
  | Serve.Json.String v, Value.Tstring -> Value.String v
  | _ -> failwith ("replay: ill-typed cell for " ^ attr.Attribute.name)

(* A served [update-target] request, replayed on [handle]. *)
let served_update ~op handle request =
  match decode_request ~op (encode ~op request) with
  | Serve.Protocol.Update_target ur ->
    let table = ur.Serve.Protocol.ur_table in
    let schema =
      Table.schema (Database.table (Delta.Maintain.target handle) table)
    in
    let attrs = Schema.attributes schema in
    let appends =
      Array.of_list
        (List.map
           (fun cells -> Array.of_list (List.mapi (fun i c -> typed_cell attrs.(i) c) cells))
           ur.Serve.Protocol.ur_appends)
    in
    let delta =
      Delta.make ~table ~appends ~deletes:(Array.of_list ur.Serve.Protocol.ur_deletes)
    in
    let outcome =
      Span.with_span ~op "delta.maintain.update" (fun () -> Delta.Maintain.update handle delta)
    in
    let mode =
      match outcome with
      | Ok Delta.Maintain.Patched -> "patched"
      | Ok (Delta.Maintain.Rebuilt _) -> "rebuilt"
      | Error m -> failwith ("replay: update rejected: " ^ m)
    in
    let reply =
      Serve.Json.Obj
        [
          ("ok", Serve.Json.Bool true);
          ("target", Serve.Json.String ur.Serve.Protocol.ur_target);
          ("table", Serve.Json.String table);
          ("generation", Serve.Json.Int (Delta.Maintain.generation handle));
          ("mode", Serve.Json.String mode);
        ]
    in
    ignore (decode_reply ~op (encode ~op reply));
    mode = "patched"
  | _ -> failwith "replay: not an update request"

(* What [ctxmatch match] does: decode the CSV text, prepare the target
   inline, run Fig. 5. *)
let oneshot ~op ~infer ~source_csv ~target_csv =
  let source = Database.make "source" (decode_tables ~op source_csv) in
  let target = Database.make "target" (decode_tables ~op target_csv) in
  let prepared = prepare_target ~op target in
  context_match ~op ~infer ~prepared ~source

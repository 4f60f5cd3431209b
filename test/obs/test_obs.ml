(* Tests for lib/obs, pinning the contracts DESIGN.md promises:

   - the disabled recorder is invisible — no events, no counters, and
     matcher output identical to an instrumented run;
   - spans nest across the pool's cross-domain fan-out (chunk spans
     parent to the span open on the submitting domain);
   - counters outside the scheduling-dependent set are identical at
     every --jobs value;
   - the exporters emit well-formed JSON with the documented fields. *)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let with_recorder f =
  Obs.Recorder.disable ();
  Obs.Recorder.reset ();
  Obs.Metrics.reset ();
  Obs.Recorder.enable ();
  Fun.protect ~finally:Obs.Recorder.disable f

(* the differential workload: a small retail run, same shape as
   test_parallel_equiv *)
let retail_run ~jobs ~seed =
  let params =
    { Workload.Retail.default_params with rows = 120; target_rows = 60; seed }
  in
  let source = Workload.Retail.source params in
  let target = Workload.Retail.target params Workload.Retail.Ryan_eyers in
  let config =
    Ctxmatch.Config.with_jobs (Ctxmatch.Config.with_seed Ctxmatch.Config.default seed) jobs
  in
  let infer = Ctxmatch.Context_match.infer_of `Src_class ~target in
  Ctxmatch.Context_match.run ~config ~infer ~source ~target ()

let fingerprint (r : Ctxmatch.Context_match.result) =
  String.concat "\n"
    (List.map
       (fun (m : Matching.Schema_match.t) ->
         Printf.sprintf "%s|%s|%s.%s|%s|%h" m.src_owner m.src_attr m.tgt_table
           m.tgt_attr
           (Relational.Condition.to_string m.condition)
           m.confidence)
       r.matches)

(* Minimal JSON recogniser — enough to reject anything malformed the
   hand-rolled emitter could produce (bad escaping, trailing commas,
   bare inf/nan).  Accepts exactly one value spanning the whole input. *)
module Json_check = struct
  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> raise (Bad (Printf.sprintf "expected %C at %d" c !pos))
    in
    let string_lit () =
      expect '"';
      let rec go () =
        match peek () with
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some _ -> advance ()
          | None -> raise (Bad "dangling escape"));
          go ()
        | Some _ ->
          advance ();
          go ()
        | None -> raise (Bad "unterminated string")
      in
      go ()
    in
    let number () =
      let num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      if not (match peek () with Some c -> num_char c | None -> false) then
        raise (Bad "number");
      while match peek () with Some c -> num_char c | None -> false do
        advance ()
      done
    in
    let lit w = String.iter expect w in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' -> obj ()
      | Some '[' -> arr ()
      | Some '"' -> string_lit ()
      | Some 't' -> lit "true"
      | Some 'f' -> lit "false"
      | Some 'n' -> lit "null"
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> raise (Bad (Printf.sprintf "unexpected input at %d" !pos))
    and obj () =
      expect '{';
      skip_ws ();
      match peek () with
      | Some '}' -> advance ()
      | _ ->
        let rec members () =
          skip_ws ();
          string_lit ();
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> raise (Bad "object")
        in
        members ()
    and arr () =
      expect '[';
      skip_ws ();
      match peek () with
      | Some ']' -> advance ()
      | _ ->
        let rec elems () =
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems ()
          | Some ']' -> advance ()
          | _ -> raise (Bad "array")
        in
        elems ()
    in
    value ();
    skip_ws ();
    if !pos <> n then raise (Bad (Printf.sprintf "trailing input at %d" !pos))

  let is_valid s = match parse s with () -> true | exception Bad _ -> false
end

(* --- the disabled recorder must be invisible --------------------------- *)

let test_disabled_invisible () =
  Obs.Recorder.disable ();
  Obs.Recorder.reset ();
  Obs.Metrics.reset ();
  let baseline = fingerprint (retail_run ~jobs:2 ~seed:7) in
  Alcotest.(check int) "no events recorded" 0 (Obs.Recorder.event_count ());
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check int) "no counters" 0 (List.length snap.Obs.Metrics.counters);
  Alcotest.(check int) "no histograms" 0 (List.length snap.Obs.Metrics.histograms);
  (* instrumentation must not perturb the matcher: the same run under
     the recorder yields the identical result *)
  let instrumented = with_recorder (fun () -> fingerprint (retail_run ~jobs:2 ~seed:7)) in
  Alcotest.(check string) "enabled run matches disabled run" baseline instrumented;
  Alcotest.(check bool) "events recorded when enabled" true (Obs.Recorder.event_count () > 0)

(* --- spans nest across the pool's cross-domain fan-out ----------------- *)

let test_span_nesting () =
  with_recorder @@ fun () ->
  let pool = Runtime.Pool.create ~jobs:3 in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  let input = Array.init 32 Fun.id in
  let results =
    Obs.Trace.with_span "batch" (fun () ->
        Runtime.Pool.map_array_results pool (fun x -> x * x) input)
  in
  Array.iteri
    (fun i -> function
      | Ok v -> Alcotest.(check int) "payload" (i * i) v
      | Error _ -> Alcotest.fail "unexpected Error slot")
    results;
  let events = Obs.Recorder.events () in
  let batch =
    match List.find_opt (fun e -> e.Obs.Recorder.path = "batch") events with
    | Some e -> e
    | None -> Alcotest.fail "no batch span recorded"
  in
  let chunks = List.filter (fun e -> e.Obs.Recorder.name = "pool.chunk") events in
  Alcotest.(check bool) "several chunk spans" true (List.length chunks > 1);
  List.iter
    (fun (e : Obs.Recorder.event) ->
      Alcotest.(check string) "chunk path extends batch path" "batch/pool.chunk" e.path;
      Alcotest.(check int) "chunk parents to the batch span" batch.Obs.Recorder.id e.parent)
    chunks;
  let ordinals =
    List.map (fun e -> e.Obs.Recorder.ordinal) chunks |> List.sort compare
  in
  Alcotest.(check (list int))
    "chunk ordinals are dense from 0"
    (List.init (List.length chunks) Fun.id)
    ordinals

(* --- counters do not depend on --jobs ---------------------------------- *)

(* pool.* reflects scheduling (chunk counts, busy time) and the
   hit/miss *split* of the shared caches can shift when two domains
   race a compute on the same key; everything else — including the
   lookup totals — must be identical at every jobs value. *)
let scheduling_dependent name =
  (String.length name >= 5 && String.sub name 0 5 = "pool.")
  || List.mem name
       [
         "memo.hits";
         "memo.misses";
         "cache.profile.hits";
         "cache.profile.misses";
         (* a build happens on a double miss, so the same races shift it *)
         "cache.profile.builds";
       ]

let counters_for ~jobs =
  with_recorder @@ fun () ->
  ignore (retail_run ~jobs ~seed:11);
  let snap = Obs.Metrics.snapshot () in
  List.filter (fun (name, _) -> not (scheduling_dependent name)) snap.Obs.Metrics.counters

let test_counters_jobs_invariant () =
  let show l = String.concat "\n" (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) l) in
  let seq = counters_for ~jobs:1 in
  Alcotest.(check bool) "lookups counted" true
    (List.assoc_opt "cache.profile.lookups" seq <> None);
  Alcotest.(check string) "counters independent of --jobs" (show seq)
    (show (counters_for ~jobs:4))

(* --- spans and counters inside infer_views ----------------------------- *)

let is_suffix ~suffix s =
  let n = String.length suffix and m = String.length s in
  m >= n && String.sub s (m - n) n = suffix

let test_infer_instrumentation () =
  let run ~jobs =
    with_recorder @@ fun () ->
    ignore (retail_run ~jobs ~seed:5);
    let snap = Obs.Metrics.snapshot () in
    let counter name = Obs.Metrics.counter_value snap name in
    let events = Obs.Recorder.events () in
    let named name = List.filter (fun (e : Obs.Recorder.event) -> e.name = name) events in
    (counter "infer.evaluations", counter "infer.tokens_encoded", named)
  in
  let evaluations, tokens, named = run ~jobs:1 in
  Alcotest.(check bool) "evaluations counted" true (evaluations > 0);
  Alcotest.(check bool) "tokens counted" true (tokens > 0);
  Alcotest.(check int) "one evaluate span per evaluation" evaluations
    (List.length (named "infer.evaluate"));
  Alcotest.(check bool) "columns encoded" true (named "infer.encode" <> []);
  let nested ~suffix name =
    List.iter
      (fun (e : Obs.Recorder.event) ->
        if not (is_suffix ~suffix e.path) then Alcotest.failf "%s at %s" name e.path)
      (named name)
  in
  nested ~suffix:"infer_views/infer.encode" "infer.encode";
  nested ~suffix:"infer_views/infer.evaluate" "infer.evaluate";
  nested ~suffix:"infer_views/infer.evaluate/infer.train" "infer.train";
  nested ~suffix:"infer_views/infer.evaluate/infer.classify" "infer.classify";
  Alcotest.(check int) "train per evaluation" evaluations (List.length (named "infer.train"));
  Alcotest.(check int) "classify per evaluation" evaluations (List.length (named "infer.classify"));
  let evaluations', tokens', _ = run ~jobs:4 in
  Alcotest.(check int) "evaluations independent of --jobs" evaluations evaluations';
  Alcotest.(check int) "tokens independent of --jobs" tokens tokens'

(* --- exporters --------------------------------------------------------- *)

let test_exporters_json () =
  with_recorder @@ fun () ->
  ignore (retail_run ~jobs:2 ~seed:3);
  let metrics = Obs.Export.metrics_json ~extra:[ ("degraded_issues", "0") ] () in
  Alcotest.(check bool) "metrics document parses" true (Json_check.is_valid metrics);
  List.iter
    (fun field ->
      Alcotest.(check bool) (field ^ " present") true (contains field metrics))
    [
      "\"spans\"";
      "\"counters\"";
      "\"pool\"";
      "\"utilization\"";
      "cache.profile.lookups";
      "\"degraded_issues\"";
    ];
  let trace = Obs.Export.trace_jsonl () in
  let lines = String.split_on_char '\n' trace |> List.filter (fun l -> l <> "") in
  Alcotest.(check bool) "trace has lines" true (lines <> []);
  List.iter
    (fun line ->
      Alcotest.(check bool) "trace line parses" true (Json_check.is_valid line))
    lines;
  let tree = Obs.Export.span_tree () in
  Alcotest.(check bool) "span tree shows the pipeline root" true
    (contains "context_match" tree)

(* --- stats accessors --------------------------------------------------- *)

let test_memo_stats () =
  let m = Runtime.Memo.create () in
  ignore (Runtime.Memo.find_or_add m "a" (fun () -> 1));
  ignore (Runtime.Memo.find_or_add m "a" (fun () -> 2));
  ignore (Runtime.Memo.find_or_add m "b" (fun () -> 3));
  let s = Runtime.Memo.stats m in
  Alcotest.(check int) "hits" 1 s.Runtime.Memo.stat_hits;
  Alcotest.(check int) "misses" 2 s.Runtime.Memo.stat_misses;
  Alcotest.(check int) "entries" 2 s.Runtime.Memo.stat_entries;
  Runtime.Memo.clear m;
  let s = Runtime.Memo.stats m in
  Alcotest.(check int) "entries dropped by clear" 0 s.Runtime.Memo.stat_entries;
  Alcotest.(check int) "counters reset by clear" 0 (s.Runtime.Memo.stat_hits + s.Runtime.Memo.stat_misses)

let test_profile_cache_stats () =
  let c = Matching.Profile_cache.create () in
  let key = Matching.Profile_cache.key ~table:"t" ~attr:"a" ~indices:[| 0; 1; 2 |] in
  let profile () = Textsim.Profile.of_strings_array [| "x"; "y" |] in
  ignore (Runtime.Memo.find_or_add c.Matching.Profile_cache.profiles key profile);
  ignore (Runtime.Memo.find_or_add c.Matching.Profile_cache.profiles key profile);
  ignore
    (Runtime.Memo.find_or_add c.Matching.Profile_cache.distincts key (fun () -> [ "x" ]));
  let s = Matching.Profile_cache.stats c in
  Alcotest.(check int) "hits summed over tables" 1 s.Matching.Profile_cache.stat_hits;
  Alcotest.(check int) "misses summed over tables" 2 s.Matching.Profile_cache.stat_misses;
  Alcotest.(check int) "entries summed over tables" 2 s.Matching.Profile_cache.stat_entries

let () =
  Alcotest.run "ctxmatch-obs"
    [
      ( "obs",
        [
          Alcotest.test_case "disabled recorder is invisible" `Quick test_disabled_invisible;
          Alcotest.test_case "spans nest across pool fan-out" `Quick test_span_nesting;
          Alcotest.test_case "counters independent of jobs" `Slow test_counters_jobs_invariant;
          Alcotest.test_case "infer spans and counters" `Quick test_infer_instrumentation;
          Alcotest.test_case "exporters emit valid JSON" `Quick test_exporters_json;
          Alcotest.test_case "memo stats accessor" `Quick test_memo_stats;
          Alcotest.test_case "profile-cache stats accessor" `Quick test_profile_cache_stats;
        ] );
    ]

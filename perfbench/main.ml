(* perfbench: the end-to-end benchmark of ctxmatch.

     main.exe --workload W --seed N --seconds S --trace 0|1

   Workloads (see README.md for why each was chosen):
   - serve-src      an in-process daemon with a registered 100-row-per-table
                    target answers SrcClassInfer [match] requests, each
                    carrying one of a pool of 200-row source samples;
   - serve-mixed    the same daemon over a 1600-row-per-table target,
                    alternating one [match] with one [update-target];
   - oneshot-naive  what `ctxmatch match` does at 16x: decode the CSV text
                    and run NaiveInfer ContextMatch, preparing the target
                    inline.

   Every run is a closed loop with one client, jobs 1, the kernel on and
   no store.  Before the timed set-ups, the inputs and one-shot oracles
   are computed once; every operation's matches are compared with its
   oracle, after the operation's timing has stopped.  With --trace 0 the last stdout line
   holds the end-to-end metrics; with --trace 1 it holds the per-layer
   metrics of a traced replay (see [Replay]), and the replay's spans are
   written to .perfbench_run/. *)

open Relational

type workload = Serve_src | Serve_mixed | Oneshot_naive

let workload_name = function
  | Serve_src -> "serve-src"
  | Serve_mixed -> "serve-mixed"
  | Oneshot_naive -> "oneshot-naive"

let workload_of_string = function
  | "serve-src" -> Some Serve_src
  | "serve-mixed" -> Some Serve_mixed
  | "oneshot-naive" -> Some Oneshot_naive
  | _ -> None

(* --- inputs -------------------------------------------------------------- *)

let pool_size = 4
let sample_rows = 200
let oneshot_source_rows = 6400
let setup_repeats = 5
let style = Workload.Retail.Ryan_eyers
let target_name = "retail"
let run_dir = ".perfbench_run"

let target_rows = function Serve_src -> 100 | Serve_mixed -> 1600 | Oneshot_naive -> 3200

let sample_params ~seed k =
  { Workload.Retail.default_params with rows = sample_rows; seed = (seed * 1000) + k }

let target_params w ~seed = { Workload.Retail.default_params with target_rows = target_rows w; seed }

let csv_payload db =
  List.map (fun t -> (Table.name t, Csv_io.table_to_csv t)) (Database.tables db)

let decode_db name payload =
  Database.make name (List.map (fun (name, csv) -> Csv_io.table_of_csv ~name csv) payload)

let config = Replay.config

(* One-shot ContextMatch over the generated databases: the oracle every
   served reply and every one-shot result is held to. *)
let oracle ~infer ~source ~target =
  let r = Ctxmatch.Context_match.run ~config ~infer ~source ~target () in
  if r.Ctxmatch.Context_match.issues <> [] then failwith "perfbench: oracle run reported issues";
  r.Ctxmatch.Context_match.matches

(* --- bookkeeping --------------------------------------------------------- *)

let now_ns = Span.now_ns
let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6
let attempted = ref 0
let failed = ref 0

let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: %s: output differs from the oracle or is not ok\n%!" what
  end

let guarded what f =
  try f ()
  with e ->
    check false (Printf.sprintf "%s raised %s" what (Printexc.to_string e));
    None

type kind = Match | Update

(* One timed operation: its kind, latency, and the words allocated and
   major collections run while it was in flight. *)
type sample = { kind : kind; ms : float; words : float; majors : int }

(* Times [f ()] and returns the sample with [f]'s result, so that the
   caller checks the result outside the timing. *)
let timed kind f =
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let words0 = Span.allocated_words () in
  let t0 = now_ns () in
  let result = f () in
  let ms = ms_since t0 in
  ( {
      kind;
      ms;
      words = Span.allocated_words () -. words0;
      majors = (Gc.quick_stat ()).Gc.major_collections - majors0;
    },
    result )

(* Runs [step 0], [step 1], ... until [seconds] have passed and at least
   [min_ops] steps ran.  Returns the samples and the seconds from the
   start to the end of the last step. *)
let run_phase ~seconds ~min_ops step =
  let t0 = now_ns () in
  let deadline = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let rec go i acc last =
    if i >= min_ops && now_ns () >= deadline then (List.rev acc, last)
    else
      let s = step i in
      go (i + 1) (s :: acc) (now_ns ())
  in
  let samples, last = go 0 [] t0 in
  (samples, Int64.to_float (Int64.sub last t0) /. 1e9)

(* Linear interpolation between order statistics; 0 for no values (a
   layer the workload does not run). *)
let quantile q values =
  match List.sort Float.compare values with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* [run_phase] with a host-speed probe (see [Speed]) before the first
   step and after each one.  Each step's latency and wall time are
   rescaled to the reference speed by the mean of the probes on either
   side of it.  Returns the rescaled samples, the rescaled seconds the
   steps took (probes excluded) and the probes' median. *)
let probed_phase ~seconds ~min_ops step =
  let first = Speed.probe () in
  let steps, _ =
    run_phase ~seconds ~min_ops (fun i ->
        let t0 = now_ns () in
        let s = step i in
        let wall = ms_since t0 in
        (s, wall, Speed.probe ()))
  in
  let _, rescaled =
    List.fold_left_map
      (fun before (s, wall, after) ->
        let probe_ms = (before +. after) /. 2.0 in
        (after, ({ s with ms = Speed.normalise ~probe_ms s.ms }, Speed.normalise ~probe_ms wall)))
      first steps
  in
  let probes = first :: List.map (fun (_, _, p) -> p) steps in
  ( List.map fst rescaled,
    List.fold_left (fun acc (_, wall) -> acc +. wall) 0.0 rescaled /. 1e3,
    median probes )

let ms_of kind samples = List.filter_map (fun s -> if s.kind = kind then Some s.ms else None) samples

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    let line = input_line ic in
    if String.starts_with ~prefix:"VmHWM:" line then
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    else find ()
  in
  find ()

(* Micro-F of the contextual matches over every oracle, against the
   Retail ground truth. *)
let fmeasure truth oracle_matches =
  let add (a : Stats.Fmeasure.counts) (b : Stats.Fmeasure.counts) =
    {
      Stats.Fmeasure.true_positives = a.true_positives + b.true_positives;
      found = a.found + b.found;
      expected = a.expected + b.expected;
    }
  in
  Stats.Fmeasure.f1
    (List.fold_left
       (fun acc ms -> add acc (Evalharness.Ground_truth.evaluate truth ms))
       { Stats.Fmeasure.true_positives = 0; found = 0; expected = 0 }
       oracle_matches)

(* --- served workloads ---------------------------------------------------- *)

(* Rows of the two target tables in the order the holder of one copy of
   the target keeps them.  An update deletes row 0 of a table and
   appends a copy of it, so the row multiset — and with it every oracle —
   never changes; the table only rotates. *)
type rotation = { tables : (string * Value.t array array) array; turns : int array }

let rotation db =
  {
    tables =
      Array.of_list (List.map (fun t -> (Table.name t, Table.rows t)) (Database.tables db));
    turns = Array.make (List.length (Database.tables db)) 0;
  }

let json_of_value = function
  | Value.Null -> Serve.Json.Null
  | Value.Int i -> Serve.Json.Int i
  | Value.Float f -> Serve.Json.Float f
  | Value.String s -> Serve.Json.String s
  | Value.Bool b -> Serve.Json.Bool b

(* The [i]th update alternates between the tables. *)
let update_request rot i =
  let t = i mod Array.length rot.tables in
  let name, rows = rot.tables.(t) in
  let row = rows.(rot.turns.(t) mod Array.length rows) in
  Serve.Protocol.update_json
    ~appends:[ Array.to_list (Array.map json_of_value row) ]
    ~deletes:[ 0 ] ~target:target_name ~table:name ()

let advance rot i =
  let t = i mod Array.length rot.tables in
  rot.turns.(t) <- rot.turns.(t) + 1

(* What a served run needs before the daemon starts; computed once. *)
type served_inputs = {
  target_csv : (string * string) list;
  requests : Serve.Json.t array;  (* one match request per pool sample *)
  expected : string list array;  (* oracle fingerprints per pool sample *)
  oracles : Matching.Schema_match.t list list;
  target_db : Database.t;  (* the target as the daemon decodes it *)
}

type served = {
  inputs : served_inputs;
  server : Serve.Server.t;
  thread : Thread.t;
  client : Serve.Client.t;
  daemon_rotation : rotation;
}

let ok_reply reply = Serve.Json.member "ok" reply = Some (Serve.Json.Bool true)

let served_fingerprint reply =
  match Serve.Json.member "matches" reply with
  | Some (Serve.Json.List l) when ok_reply reply -> Some (List.filter_map Serve.Json.to_string_opt l)
  | _ -> None

let served_inputs w ~seed =
  let target = Workload.Retail.target (target_params w ~seed) style in
  let samples = List.init pool_size (fun k -> Workload.Retail.source (sample_params ~seed k)) in
  let infer = Ctxmatch.Context_match.infer_of `Src_class ~target in
  let oracles = List.map (fun source -> oracle ~infer ~source ~target) samples in
  let requests =
    Array.of_list
      (List.map
         (fun s ->
           Serve.Protocol.match_json ~algorithm:"src" ~seed:config.Ctxmatch.Config.seed ~jobs:1
             ~kernel:true ~target:target_name (csv_payload s))
         samples)
  in
  let target_csv = csv_payload target in
  {
    target_csv;
    requests;
    expected = Array.of_list (List.map Replay.fingerprint oracles);
    oracles;
    target_db = decode_db "target" target_csv;
  }

(* The program's set-up on a served workload: start the daemon and
   register the target. *)
let start_daemon w inputs ~rep =
  let socket =
    Filename.concat run_dir (Printf.sprintf "%s-%d-%d.sock" (workload_name w) (Unix.getpid ()) rep)
  in
  let address = Serve.Server.Unix_sock socket in
  let server =
    Serve.Server.create { (Serve.Server.default_config address) with Serve.Server.default_jobs = 1 }
  in
  let thread = Serve.Server.start server in
  let client = Serve.Client.connect ~retries:200 ~retry_delay_s:0.01 address in
  let reply =
    Serve.Client.request client
      (Serve.Protocol.register_json ~kernel:true ~name:target_name inputs.target_csv)
  in
  if not (ok_reply reply) then failwith ("perfbench: register-target failed: " ^ Serve.Json.to_string reply);
  (server, thread, client)

let teardown_served st =
  Serve.Client.close st.client;
  Serve.Server.stop st.server;
  Thread.join st.thread

let served_match st k =
  let sample, reply =
    timed Match (fun () ->
        guarded "match" (fun () -> Some (Serve.Client.request st.client st.inputs.requests.(k))))
  in
  Option.iter
    (fun r -> check (served_fingerprint r = Some st.inputs.expected.(k)) "served match")
    reply;
  sample

let served_update st i =
  let request = update_request st.daemon_rotation i in
  let sample, reply =
    timed Update (fun () -> guarded "update" (fun () -> Some (Serve.Client.request st.client request)))
  in
  Option.iter
    (fun reply ->
      let patched = Serve.Json.member "mode" reply = Some (Serve.Json.String "patched") in
      check (ok_reply reply && patched) "served update";
      if ok_reply reply then advance st.daemon_rotation i)
    reply;
  sample

(* The closed loop's [i]th operation: serve-mixed alternates a match
   with an update. *)
let served_step w st i =
  if w <> Serve_mixed then served_match st (i mod pool_size)
  else if i mod 2 = 1 then served_update st (i / 2)
  else served_match st (i / 2 mod pool_size)

(* --- one-shot workload --------------------------------------------------- *)

(* The generated databases and their oracle; computed once. *)
type oneshot_inputs = {
  source_db : Database.t;
  oneshot_target_db : Database.t;
  oneshot_expected : string list;
  oneshot_oracle : Matching.Schema_match.t list;
}

type oneshot = {
  oneshot_inputs : oneshot_inputs;
  source_csv : (string * string) list;
  oneshot_target_csv : (string * string) list;
}

let naive = Ctxmatch.Context_match.infer_of `Naive ~target:(Database.make "target" [])

let oneshot_inputs ~seed =
  let params =
    {
      Workload.Retail.default_params with
      rows = oneshot_source_rows;
      target_rows = target_rows Oneshot_naive;
      seed;
    }
  in
  let source = Workload.Retail.source params in
  let target = Workload.Retail.target params style in
  let matches = oracle ~infer:naive ~source ~target in
  {
    source_db = source;
    oneshot_target_db = target;
    oneshot_expected = Replay.fingerprint matches;
    oneshot_oracle = matches;
  }

(* The one-shot set-up: render the CSV text that `ctxmatch match` reads. *)
let render_csv inputs =
  {
    oneshot_inputs = inputs;
    source_csv = csv_payload inputs.source_db;
    oneshot_target_csv = csv_payload inputs.oneshot_target_db;
  }

(* A CLI process starts with a fresh heap: compact before each one-shot
   op, out of its timing. *)
let fresh_heap w = if w = Oneshot_naive then Gc.compact ()

let oneshot_step st _ =
  fresh_heap Oneshot_naive;
  let sample, result =
    timed Match (fun () ->
        guarded "oneshot" (fun () ->
            let source = decode_db "source" st.source_csv in
            let target = decode_db "target" st.oneshot_target_csv in
            Some (Ctxmatch.Context_match.run ~config ~infer:naive ~source ~target ())))
  in
  Option.iter
    (fun r ->
      check
        (Replay.fingerprint r.Ctxmatch.Context_match.matches = st.oneshot_inputs.oneshot_expected
        && r.Ctxmatch.Context_match.issues = [])
        "oneshot")
    result;
  sample

(* --- output -------------------------------------------------------------- *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "perfbench: non-finite metric"

let print_result metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed body

(* --- end-to-end run ------------------------------------------------------ *)

type inputs = Served_inputs of served_inputs | Oneshot_inputs of oneshot_inputs
type state = Served of served | Oneshot of oneshot

let inputs w ~seed =
  match w with
  | Serve_src | Serve_mixed -> Served_inputs (served_inputs w ~seed)
  | Oneshot_naive -> Oneshot_inputs (oneshot_inputs ~seed)

(* The program's set-up, timed by [timed_setup]; bookkeeping of the
   benchmark's own (the rotation) is done after the timing stops. *)
let setup w inputs ~rep =
  match inputs with
  | Served_inputs si ->
    let t0 = now_ns () in
    let server, thread, client = start_daemon w si ~rep in
    let s = ms_since t0 /. 1e3 in
    (Served { inputs = si; server; thread; client; daemon_rotation = rotation si.target_db }, s)
  | Oneshot_inputs oi ->
    let t0 = now_ns () in
    let st = render_csv oi in
    (Oneshot st, ms_since t0 /. 1e3)

let teardown = function Served st -> teardown_served st | Oneshot _ -> ()

let step w state i =
  match state with Served st -> served_step w st i | Oneshot st -> oneshot_step st i

(* Operations in one pass over the pool: every sample once (and, on
   serve-mixed, one update after each). *)
let pass_length = function
  | Serve_src -> pool_size
  | Serve_mixed -> 2 * pool_size
  | Oneshot_naive -> 1

let oracles_of = function
  | Served st -> st.inputs.oracles
  | Oneshot st -> [ st.oneshot_inputs.oneshot_oracle ]

(* Every workload uses the generator's default gamma, the only
   parameter the expected matches depend on. *)
let truth = Evalharness.Ground_truth.retail Workload.Retail.default_params style

(* Set up [setup_repeats] times from the same inputs, keep the last
   state, report the median set-up time, each rescaled to the
   reference speed by the probes just before and after it. *)
let timed_setup w inputs =
  let rec go rep times =
    Gc.compact ();
    let before = Speed.probe () in
    let state, s = setup w inputs ~rep in
    let s = Speed.normalise ~probe_ms:((before +. Speed.probe ()) /. 2.0) s in
    if rep + 1 < setup_repeats then begin
      teardown state;
      go (rep + 1) (s :: times)
    end
    else (state, median (s :: times))
  in
  go 0 []

let warm_up w state = ignore (List.init (pass_length w) (step w state))

(* Set-up is timed in two groups, before the timed loop and after it,
   and [setup_s] is the mean of the two medians: the machine's speed
   drifts over tens of seconds, and one group of set-ups, a fraction
   of a second long, would sample a single stretch of it. *)
let end_to_end w ~seed ~seconds =
  let inputs = inputs w ~seed in
  let state, setup_before = timed_setup w inputs in
  warm_up w state;
  Gc.compact ();
  let samples, wall, probe_ms = probed_phase ~seconds ~min_ops:(pass_length w) (step w state) in
  teardown state;
  let peak_rss = peak_rss_mb () in
  let last, setup_after = timed_setup w inputs in
  teardown last;
  let matches = ms_of Match samples in
  Printf.eprintf "perfbench: median speed probe %.3f ms (reference %.1f ms)\n%!" probe_ms
    Speed.reference_ms;
  [
    ("setup_s", (setup_before +. setup_after) /. 2.0, "s");
    ("match_ms_p50", median matches, "ms");
    ("matches_per_s", float_of_int (List.length matches) /. wall, "1/s");
    ("peak_rss_mb", peak_rss, "MB");
    ("fmeasure", fmeasure truth (oracles_of state), "ratio");
  ]

(* --- traced run ---------------------------------------------------------- *)

(* The replay's own copy of the target.  One-shot ops prepare it inline;
   serve-src replays against one prepared artefact; serve-mixed against
   a maintained handle, advanced by the replayed updates as the daemon's
   copy is advanced by the served ones. *)
type replay_target =
  | Inline
  | Prepared of Matching.Standard_match.prepared_target
  | Maintained of Delta.Maintain.t * rotation

let replay_target w state =
  match state with
  | Oneshot _ -> Inline
  | Served st -> (
    Span.recording := true;
    let target_db = st.inputs.target_db in
    let prepared = Replay.prepare_target ~op:(-1) target_db in
    Span.recording := false;
    match w with
    | Serve_mixed ->
      Maintained (Delta.Maintain.create ~kernel:true ~target:target_db ~prepared (), rotation target_db)
    | Serve_src | Oneshot_naive -> Prepared prepared)

type replayed = Matched of Replay.match_figures | Updated of bool

let pool_index w i = (if w = Serve_mixed then i / 2 else i) mod pool_size

let replay_step w state rt ~op i =
  match (state, rt) with
  | Oneshot st, _ ->
    Matched
      (Replay.oneshot ~op ~infer:naive ~source_csv:st.source_csv
         ~target_csv:st.oneshot_target_csv)
  | Served _, Maintained (handle, rot) when i mod 2 = 1 ->
    let patched = Replay.served_update ~op handle (update_request rot (i / 2)) in
    advance rot (i / 2);
    Updated patched
  | Served st, _ ->
    let prepared =
      match rt with
      | Prepared p -> p
      | Maintained (handle, _) -> Delta.Maintain.prepared handle
      | Inline -> invalid_arg "replay_step: a served workload needs a prepared target"
    in
    Matched (Replay.served_match ~op ~prepared st.inputs.requests.(pool_index w i))

(* Holds the [i]th replayed op to its oracle, after its timing. *)
let check_replayed w state i = function
  | Updated patched -> check patched "replayed update"
  | Matched figures ->
    let expected =
      match state with
      | Oneshot st -> st.oneshot_inputs.oneshot_expected
      | Served st -> st.inputs.expected.(pool_index w i)
    in
    check (Replay.fingerprint figures.Replay.matches = expected) "replayed op"

let next_op = ref 0

(* The [i]th replayed op, with a fresh op id.  With [traced], benchmark
   spans and the program's own Obs spans are recorded while it runs.
   Returns its sample and, unless it raised, its id and result. *)
let replay_op w state rt ~traced i =
  let op = !next_op in
  incr next_op;
  fresh_heap w;
  if traced then begin
    Obs.Recorder.reset ();
    Obs.Metrics.reset ();
    Obs.Recorder.enable ();
    Span.recording := true
  end;
  let kind = if w = Serve_mixed && i mod 2 = 1 then Update else Match in
  let sample, result =
    timed kind (fun () ->
        guarded "replay" (fun () ->
            Some (Span.with_span ~op "op" (fun () -> replay_step w state rt ~op i))))
  in
  if traced then begin
    Span.recording := false;
    Obs.Recorder.disable ()
  end;
  Option.iter (check_replayed w state i) result;
  (sample, Option.map (fun r -> (op, r)) result)

(* Each step of the traced run does the [i]th op three ways: A served
   (or one-shot) untraced, B replayed untraced, C replayed traced.
   Interleaving them, rather than running three phases one after the
   other, keeps slow drift in machine speed out of the differences
   A - B and C - B. *)
let traced w ~seed ~seconds =
  let state, _ = setup w (inputs w ~seed) ~rep:0 in
  let rt = replay_target w state in
  warm_up w state;
  ignore (List.init (pass_length w) (fun i -> replay_op w state rt ~traced:false i));
  Gc.compact ();
  let steps, _ =
    run_phase ~seconds ~min_ops:(pass_length w) (fun i ->
        let a = step w state i in
        let b, _ = replay_op w state rt ~traced:false i in
        let c, result = replay_op w state rt ~traced:true i in
        (a, b, c, result))
  in
  let counters =
    match state with Served st -> Some (Serve.Server.counters st.server) | Oneshot _ -> None
  in
  teardown state;
  let e2e = List.map (fun (a, _, _, _) -> a) steps in
  let plain = List.map (fun (_, b, _, _) -> b) steps in
  let traced_samples = List.map (fun (_, _, c, _) -> c) steps in
  let results = List.filter_map (fun (_, _, _, r) -> r) steps in
  let spans = Span.all () in
  (try Span.write_jsonl
         (Filename.concat run_dir
            (Printf.sprintf "spans-%s-seed%d.jsonl" (workload_name w) seed))
         spans
   with Sys_error m -> Printf.eprintf "perfbench: spans not written: %s\n%!" m);
  let matched = List.filter_map (function op, Matched f -> Some (op, f) | _, Updated _ -> None) results in
  let updated = List.filter_map (function op, Updated p -> Some (op, p) | _, Matched _ -> None) results in
  let match_ops = List.map fst matched and update_ops = List.map fst updated in
  (* per-op self figures of one span name, 0 for ops without the span *)
  let layer ops name =
    let by_op = Span.per_op spans name in
    List.map (fun op -> Option.value (Hashtbl.find_opt by_op op) ~default:(0.0, 0.0)) ops
  in
  let ms_med ops name = median (List.map fst (layer ops name)) in
  let mw_med ops name = median (List.map snd (layer ops name)) /. 1e6 in
  (* deterministic counts: the mean per op over the first pass *)
  let first_pass = List.filteri (fun i _ -> i < pass_length w) results in
  let first_matches = List.filter_map (function _, Matched f -> Some f | _ -> None) first_pass in
  let first_updates = List.filter_map (function _, Updated p -> Some p | _ -> None) first_pass in
  let count f = mean (List.map (fun m -> float_of_int (f m)) first_matches) in
  let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den in
  let sum f = List.fold_left (fun acc m -> acc + f m) 0 first_matches in
  let prepare_ms, prepare_mw =
    match w with
    | Oneshot_naive -> (ms_med match_ops "matching.prepare_target", mw_med match_ops "matching.prepare_target")
    | Serve_src | Serve_mixed ->
      (ms_med [ -1 ] "matching.prepare_target", mw_med [ -1 ] "matching.prepare_target")
  in
  let op_totals samples kind = median (ms_of kind samples) in
  let request_kb =
    match state with
    | Served st ->
      mean
        (Array.to_list
           (Array.map
              (fun r -> float_of_int (String.length (Serve.Json.to_string r)) /. 1024.0)
              st.inputs.requests))
    | Oneshot _ -> 0.0
  in
  let updates_ms = ms_of Update e2e in
  let e2e_ops = float_of_int (max 1 (List.length e2e)) in
  [
    ("serve.json.decode_ms", ms_med match_ops "serve.json.decode", "ms");
    ("serve.json.encode_ms", ms_med match_ops "serve.json.encode", "ms");
    ("serve.json.request_kb", request_kb, "KiB");
    ("relational.csv_io.decode_ms", ms_med match_ops "relational.csv_io.decode", "ms");
    ("matching.prepare_target.ms", prepare_ms, "ms");
    ("matching.prepare_target.alloc_mw", prepare_mw, "Mwords");
    ("matching.build.ms", ms_med match_ops "matching.build", "ms");
    ("matching.build.alloc_mw", mw_med match_ops "matching.build", "Mwords");
    ( "matching.build.warm_families_ms",
      median (List.map (fun (_, f) -> f.Replay.warm_families_ms) matched),
      "ms" );
    ( "matching.build.score_pairs_ms",
      median (List.map (fun (_, f) -> f.Replay.score_pairs_ms) matched),
      "ms" );
    ("matching.build.pairs_scored", count (fun f -> f.Replay.pairs_scored), "count");
    ("matching.build.cache_lookups", count (fun f -> f.Replay.cache_lookups), "count");
    ( "matching.build.cache_hit_frac",
      ratio (sum (fun f -> f.Replay.cache_hits)) (sum (fun f -> f.Replay.cache_lookups)),
      "ratio" );
    ("matching.build.profile_builds", count (fun f -> f.Replay.profile_builds), "count");
    ("core.infer.ms", ms_med match_ops "core.infer", "ms");
    ("core.infer.alloc_mw", mw_med match_ops "core.infer", "Mwords");
    ("core.infer.families", count (fun f -> f.Replay.families), "count");
    ("core.infer.views", count (fun f -> f.Replay.views), "count");
    ("matching.view_matches.ms", ms_med match_ops "matching.view_matches", "ms");
    ("matching.view_matches.alloc_mw", mw_med match_ops "matching.view_matches", "Mwords");
    ("matching.view_matches.views_scored", count (fun f -> f.Replay.useful_views), "count");
    ( "matching.view_matches.useful_frac",
      ratio (sum (fun f -> f.Replay.useful_views)) (sum (fun f -> f.Replay.views)),
      "ratio" );
    ("core.select_matches.ms", ms_med match_ops "core.select_matches", "ms");
    ("core.select_matches.selected", count (fun f -> f.Replay.selected), "count");
    ("delta.maintain.update_ms", ms_med update_ops "delta.maintain.update", "ms");
    ("delta.maintain.alloc_mw", mw_med update_ops "delta.maintain.update", "Mwords");
    ( "delta.maintain.patched_frac",
      ratio (List.length (List.filter Fun.id first_updates)) (List.length first_updates),
      "ratio" );
    ("serve.update_ms_p50", median updates_ms, "ms");
    ("serve.update_ms_p90", quantile 0.9 updates_ms, "ms");
    ( "serve.server.overhead_ms",
      (if w = Oneshot_naive then 0.0 else op_totals e2e Match -. op_totals plain Match),
      "ms" );
    ( "serve.server.rejected",
      float_of_int (match counters with Some c -> c.Serve.Server.c_rejected | None -> 0),
      "count" );
    ( "serve.server.protocol_errors",
      float_of_int (match counters with Some c -> c.Serve.Server.c_protocol_errors | None -> 0),
      "count" );
    ( "gc.alloc_mw_per_op",
      List.fold_left (fun acc s -> acc +. s.words) 0.0 e2e /. e2e_ops /. 1e6,
      "Mwords" );
    ( "gc.major_collections_per_op",
      float_of_int (List.fold_left (fun acc s -> acc + s.majors) 0 e2e) /. e2e_ops,
      "count" );
    ("trace.overhead_ms", op_totals traced_samples Match -. op_totals plain Match, "ms");
  ]

(* --- command line -------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "serve-src | serve-mixed | oneshot-naive");
      ("--seed", Arg.Set_int seed, "N  workload seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or traced per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let w =
    match workload_of_string !workload with
    | Some w when !seed >= 0 && !seconds > 0.0 && (!trace = 0 || !trace = 1) -> w
    | _ ->
      prerr_endline "perfbench: need --workload serve-src|serve-mixed|oneshot-naive, --seed N >= 0, --seconds S > 0, --trace 0|1";
      exit 2
  in
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  let metrics =
    if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds
    else traced w ~seed:!seed ~seconds:!seconds
  in
  print_result metrics;
  if !failed > 0 then exit 1

(* ctxmatch — contextual schema matching from the command line.

   match:  load source/target tables from CSV files (first row = header,
           types inferred), run ContextMatch, print the matches.
   map:    additionally generate the Clio-style mapping plan and execute
           it, writing one CSV per target table.
   demo:   run the built-in retail or grades scenario.
   serve:  long-lived match daemon on a Unix/TCP socket (line-delimited
           JSON protocol; see DESIGN.md, "Serving").
   client: talk to a running daemon (one-off ping/stats/shutdown, or
           pipe request lines through stdin).

   store-verify: audit a store directory's shards (crash-recovery
           check) without touching them.

   Exit codes: 0 success, 2 usage error, 3 ingestion error, 4 matching /
   mapping error, 5 serve error (bind failure, lost daemon), 6 store
   verification found a truncated/corrupt shard.
   Degraded-but-successful runs (quarantined rows, skipped views — see
   DESIGN.md, "Failure semantics") exit 0 with the diagnostics on stderr
   and a "# degraded" summary on stdout. *)

open Cmdliner

(* Every failure funnels through this so the user always gets ONE
   diagnostic line and a meaningful exit code instead of a backtrace. *)
exception Cli_error of { code : int; message : string }

let usage_code = 2
let ingest_code = 3
let match_code = 4
let serve_code = 5
let store_code = 6

let cli_error code fmt =
  Printf.ksprintf (fun message -> raise (Cli_error { code; message })) fmt

(* Phase wrappers: whatever escapes a phase is tagged with that phase's
   exit code.  Parse errors keep their line numbers in the message. *)
let ingest_phase f =
  try f () with
  | Cli_error _ as e -> raise e
  | Relational.Csv_io.Parse_error { line; message } ->
    cli_error ingest_code "ingestion failed (line %d): %s" line message
  | Xmlbridge.Xml_doc.Parse_error { position; message } ->
    cli_error ingest_code "ingestion failed (byte %d): %s" position message
  | Sys_error message -> cli_error ingest_code "ingestion failed: %s" message
  | e -> cli_error ingest_code "ingestion failed: %s" (Printexc.to_string e)

let match_phase f =
  try f () with
  | Cli_error _ as e -> raise e
  | e -> cli_error match_code "matching failed: %s" (Printexc.to_string e)

let report_issues issues =
  List.iter
    (fun issue -> Printf.eprintf "ctxmatch: %s\n%!" (Robust.Error.to_string issue))
    issues

(* CSV by default; .xml files are shredded (repeated record elements
   become rows; see Xmlbridge.Shred).  Under --lenient, malformed CSV
   rows are quarantined (reported on stderr) instead of fatal. *)
let load_tables ~mode files =
  ingest_phase @@ fun () ->
  List.map
    (fun path ->
      let name = Filename.remove_extension (Filename.basename path) in
      if Filename.check_suffix path ".xml" then begin
        let text = Relational.Csv_io.read_file path in
        Relational.Table.rename (Xmlbridge.Shred.table_of_string text) name
      end
      else begin
        let table, issues = Relational.Csv_io.table_of_file_report ~mode ~name path in
        report_issues issues;
        (match mode with
        | Relational.Csv_io.Lenient
          when List.exists
                 (fun (i : Robust.Error.t) -> i.severity = Robust.Error.Fatal)
                 issues ->
          cli_error ingest_code "%s: unreadable even leniently" path
        | _ -> ());
        table
      end)
    files

let candidate_filter_of_string plan =
  match Ctxmatch.Config.candidate_filter_of_string plan with
  | Ok filter -> filter
  | Error message -> cli_error usage_code "%s" message

let make_config tau omega late select seed jobs timeout_ms plan =
  let select =
    match select with
    | "qual" -> Ctxmatch.Config.Qual_table
    | "multi" -> Ctxmatch.Config.Multi_table
    | "clio" -> Ctxmatch.Config.Clio_qual_table
    | other -> cli_error usage_code "unknown selection policy %s (qual|multi|clio)" other
  in
  let jobs = if jobs <= 0 then Ctxmatch.Config.default.Ctxmatch.Config.jobs else jobs in
  {
    Ctxmatch.Config.default with
    tau;
    omega;
    early_disjuncts = not late;
    select;
    seed;
    jobs;
    timeout_ms;
    candidate_filter = candidate_filter_of_string plan;
  }

let algorithm_of_string = function
  | "naive" -> `Naive
  | "src" -> `Src_class
  | "tgt" -> `Tgt_class
  | "cluster" -> `Cluster
  | other -> cli_error usage_code "unknown inference algorithm %s (naive|src|tgt|cluster)" other

(* --where PRE-FILTERS the source tables (any table owning all the
   mentioned attributes) before matching; useful to focus a sample. *)
let apply_where where db =
  match where with
  | None -> db
  | Some text ->
    let condition =
      try Relational.Condition_parser.parse text
      with e -> cli_error usage_code "bad --where condition: %s" (Printexc.to_string e)
    in
    let attrs = Relational.Condition.attributes condition in
    Relational.Database.map_tables
      (fun table ->
        let schema = Relational.Table.schema table in
        if List.for_all (Relational.Schema.mem schema) attrs then
          Relational.Table.filter table (Relational.Condition.eval condition schema)
        else table)
      db

(* Degraded-run summary.  With cache stats available (a matching run)
   the line also reports the profile-cache economics, so a degraded
   run's quarantine cost and cache behaviour land in the same place. *)
let print_degraded ?cache issues =
  report_issues issues;
  if issues <> [] then
    match cache with
    | Some (hits, misses) ->
      Printf.printf "# degraded: %d issues (profile cache: %d hits / %d misses)\n"
        (List.length issues) hits misses
    | None -> Printf.printf "# degraded: %d issues\n" (List.length issues)

(* Observability: any of --trace/--metrics/--profile switches the
   recorder on for the whole command (ingestion included); with all
   three absent the recorder stays off and every instrumentation site
   costs one branch, keeping output byte-identical to an uninstrumented
   binary.  [obs_finish] runs after the last pipeline stage so map-mode
   spans are in the export too. *)
let obs_enabled trace metrics profile = trace <> None || metrics <> None || profile

let obs_start trace metrics profile =
  if obs_enabled trace metrics profile then Obs.Recorder.enable ()

let obs_finish trace metrics profile =
  if obs_enabled trace metrics profile then begin
    (match trace with Some path -> Obs.Export.write_trace path | None -> ());
    (match metrics with Some path -> Obs.Export.write_metrics path | None -> ());
    if profile then prerr_string (Obs.Export.span_tree ())
  end

let run_match source_files target_files tau omega late select algorithm seed where jobs mode
    timeout_ms store_dir store_readonly plan =
  let config = make_config tau omega late select seed jobs timeout_ms plan in
  let algorithm = algorithm_of_string algorithm in
  let source =
    apply_where where (Relational.Database.make "source" (load_tables ~mode source_files))
  in
  let target = Relational.Database.make "target" (load_tables ~mode target_files) in
  match_phase @@ fun () ->
  let store =
    Option.map (fun dir -> Store.open_dir ~readonly:store_readonly dir) store_dir
  in
  let infer = Ctxmatch.Context_match.infer_of algorithm ~target in
  let result = Ctxmatch.Context_match.run ~config ?store ~infer ~source ~target () in
  Printf.printf "# standard matches: %d, candidate views scored: %d, %.2fs\n"
    (List.length result.Ctxmatch.Context_match.standard)
    result.Ctxmatch.Context_match.candidate_view_count
    result.Ctxmatch.Context_match.elapsed_seconds;
  (* only a candidate filter earns a summary line, so default output
     stays byte-identical to every earlier release *)
  if config.Ctxmatch.Config.candidate_filter <> None then
    Printf.printf "# plan %s: %d pairs scored, %d pruned\n"
      (Ctxmatch.Config.candidate_filter_to_string config.Ctxmatch.Config.candidate_filter)
      result.Ctxmatch.Context_match.pairs_scored result.Ctxmatch.Context_match.pairs_pruned;
  (match store with
  | None -> ()
  | Some s ->
    Store.flush s;
    let st = Store.stats s in
    Printf.printf
      "# store: %d hits / %d misses, %d added, %d shards loaded, %d flushed, %d quarantined, \
       %d profile builds\n"
      st.Store.st_hits st.Store.st_misses st.Store.st_adds st.Store.st_shard_loads
      st.Store.st_flushed st.Store.st_quarantined
      result.Ctxmatch.Context_match.profile_builds);
  print_degraded
    ~cache:
      ( result.Ctxmatch.Context_match.cache_hits,
        result.Ctxmatch.Context_match.cache_misses )
    result.Ctxmatch.Context_match.issues;
  List.iter
    (fun m -> print_endline (Matching.Schema_match.to_string m))
    result.Ctxmatch.Context_match.matches;
  result

let match_cmd_run source_files target_files tau omega late select algorithm seed where jobs
    mode timeout_ms store_dir store_readonly plan trace metrics profile =
  obs_start trace metrics profile;
  ignore
    (run_match source_files target_files tau omega late select algorithm seed where jobs mode
       timeout_ms store_dir store_readonly plan);
  obs_finish trace metrics profile

let map_cmd_run source_files target_files tau omega late select algorithm seed where jobs mode
    timeout_ms store_dir store_readonly plan trace metrics profile out_dir =
  obs_start trace metrics profile;
  let result =
    run_match source_files target_files tau omega late select algorithm seed where jobs mode
      timeout_ms store_dir store_readonly plan
  in
  let source =
    apply_where where (Relational.Database.make "source" (load_tables ~mode source_files))
  in
  let target = Relational.Database.make "target" (load_tables ~mode target_files) in
  match_phase @@ fun () ->
  let plan =
    Mapping.Mapping_gen.plan ~source ~target ~matches:result.Ctxmatch.Context_match.matches ()
  in
  Printf.printf "# derived constraints: %d, joins: %d\n"
    (List.length plan.Mapping.Mapping_gen.derived)
    (List.length plan.Mapping.Mapping_gen.joins);
  List.iter
    (fun (j : Mapping.Association.join) ->
      Printf.printf "# join [%s] %s -- %s\n" j.rule j.left j.right)
    plan.Mapping.Mapping_gen.joins;
  let mapped, map_issues = Mapping.Mapping_gen.execute_all_report plan in
  print_degraded map_issues;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  (* the equivalent SQL transformation script, for review/porting *)
  let sql_path = Filename.concat out_dir "mapping.sql" in
  let oc = open_out sql_path in
  output_string oc (Mapping.Sql_render.script plan);
  close_out oc;
  Printf.printf "# wrote %s\n" sql_path;
  List.iter
    (fun table ->
      let path = Filename.concat out_dir (Relational.Table.name table ^ ".csv") in
      let oc = open_out path in
      output_string oc (Relational.Csv_io.table_to_csv table);
      close_out oc;
      Printf.printf "# wrote %s (%d rows)\n" path (Relational.Table.row_count table))
    (Relational.Database.tables mapped);
  obs_finish trace metrics profile

let demo_cmd_run scenario =
  match scenario with
  | "retail" ->
    match_phase @@ fun () ->
    let params = Workload.Retail.default_params in
    let source = Workload.Retail.source params in
    let target = Workload.Retail.target params Workload.Retail.Ryan_eyers in
    let infer = Ctxmatch.Context_match.infer_of `Src_class ~target in
    let result =
      Ctxmatch.Context_match.run ~config:Ctxmatch.Config.default ~infer ~source ~target ()
    in
    print_degraded result.Ctxmatch.Context_match.issues;
    List.iter
      (fun m -> print_endline (Matching.Schema_match.to_string m))
      result.Ctxmatch.Context_match.matches;
    let truth = Evalharness.Ground_truth.retail params Workload.Retail.Ryan_eyers in
    Printf.printf "FMeasure %.3f\n"
      (Evalharness.Ground_truth.fmeasure truth result.Ctxmatch.Context_match.matches)
  | "grades" ->
    match_phase @@ fun () ->
    let params = Workload.Grades.default_params in
    let source = Workload.Grades.narrow params in
    let target = Workload.Grades.wide params in
    (* grades matches are tenuous (paper S5.8): run inside the tau/omega
       plateau of this scale *)
    let config =
      {
        Ctxmatch.Config.default with
        tau = 0.4;
        omega = 0.1;
        early_disjuncts = false;
        select = Ctxmatch.Config.Clio_qual_table;
      }
    in
    let infer = Ctxmatch.Context_match.infer_of `Src_class ~target in
    let result = Ctxmatch.Context_match.run ~config ~infer ~source ~target () in
    print_degraded result.Ctxmatch.Context_match.issues;
    List.iter
      (fun m -> print_endline (Matching.Schema_match.to_string m))
      result.Ctxmatch.Context_match.matches;
    let truth = Evalharness.Ground_truth.grades params in
    Printf.printf "Accuracy %.3f\n"
      (Evalharness.Ground_truth.accuracy truth result.Ctxmatch.Context_match.matches)
  | other -> cli_error usage_code "unknown scenario %s (retail|grades)" other

(* -- store-verify ------------------------------------------------------- *)

(* Crash-recovery audit: classify every file of a store directory and
   exit non-zero (code 6) if anything is outside {clean, quarantined}.
   Never mutates the store — quarantining stays the job of the read
   path that owns the data. *)
let store_verify_cmd_run dir json =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    cli_error usage_code "%s: not a directory" dir;
  let r = Store.verify dir in
  if json then
    (* machine-readable audit, e.g. for CI gates and supervisors *)
    print_endline
      (Serve.Json.to_string
         (Serve.Json.Obj
            [
              ("dir", Serve.Json.String dir);
              ( "entries",
                Serve.Json.List
                  (List.map
                     (fun (e : Store.verify_entry) ->
                       Serve.Json.Obj
                         [
                           ("file", Serve.Json.String e.Store.ve_file);
                           ("status", Serve.Json.String (Store.shard_status_name e.Store.ve_status));
                           ("detail", Serve.Json.String e.Store.ve_detail);
                         ])
                     r.Store.vr_entries) );
              ("clean", Serve.Json.Int r.Store.vr_clean);
              ("truncated", Serve.Json.Int r.Store.vr_truncated);
              ("corrupt", Serve.Json.Int r.Store.vr_corrupt);
              ("quarantined", Serve.Json.Int r.Store.vr_quarantined);
              ("tmp", Serve.Json.Int r.Store.vr_tmp);
              ("deltas", Serve.Json.Int r.Store.vr_deltas);
              ("index_ok", Serve.Json.Bool r.Store.vr_index_ok);
              ("healthy", Serve.Json.Bool (Store.verify_healthy r));
            ]))
  else begin
    List.iter
      (fun (e : Store.verify_entry) ->
        Printf.printf "%-12s %s%s\n"
          (Store.shard_status_name e.Store.ve_status)
          e.Store.ve_file
          (if e.Store.ve_detail = "" then "" else Printf.sprintf " (%s)" e.Store.ve_detail))
      r.Store.vr_entries;
    Printf.printf
      "# store-verify: %d clean, %d truncated, %d corrupt, %d quarantined, %d tmp, %d deltas, index %s\n"
      r.Store.vr_clean r.Store.vr_truncated r.Store.vr_corrupt r.Store.vr_quarantined
      r.Store.vr_tmp r.Store.vr_deltas
      (if r.Store.vr_index_ok then "ok" else "corrupt")
  end;
  if not (Store.verify_healthy r) then
    cli_error store_code "store %s has %d truncated / %d corrupt shards%s" dir
      r.Store.vr_truncated r.Store.vr_corrupt
      (if r.Store.vr_index_ok then "" else " and a corrupt index")

(* -- serve / client ----------------------------------------------------- *)

let serve_address socket port host =
  match (socket, port) with
  | Some _, Some _ -> cli_error usage_code "--socket and --port are mutually exclusive"
  | Some path, None -> Serve.Server.Unix_sock path
  | None, Some port -> Serve.Server.Tcp (host, port)
  | None, None -> cli_error usage_code "one of --socket PATH or --port PORT is required"

let serve_phase f =
  try f () with
  | Cli_error _ as e -> raise e
  | Serve.Server.Bind_error { address; reason } ->
    cli_error serve_code "cannot serve on %s: %s" address reason
  | e -> cli_error serve_code "serve failed: %s" (Printexc.to_string e)

let serve_cmd_run socket port host jobs queue timeout_ms max_request_bytes store_dir
    store_readonly flush_every breaker_threshold breaker_cooldown_ms faults trace metrics
    profile =
  obs_start trace metrics profile;
  serve_phase @@ fun () ->
  (* chaos arming: deterministic I/O faults for the whole daemon
     lifetime, e.g. --fault store-shard-write:0.5:7:torn=0.6 *)
  List.iter
    (fun spec ->
      match Robust.Fault.arm_spec spec with
      | Ok () -> ()
      | Error message -> cli_error usage_code "--fault %s: %s" spec message)
    faults;
  let address = serve_address socket port host in
  let default_jobs =
    if jobs <= 0 then Ctxmatch.Config.default.Ctxmatch.Config.jobs else jobs
  in
  let config =
    {
      (Serve.Server.default_config address) with
      Serve.Server.default_jobs;
      queue_capacity = queue;
      default_timeout_ms = timeout_ms;
      max_request_bytes;
      store_dir;
      store_readonly;
      flush_every;
      breaker_threshold;
      breaker_cooldown_ms;
    }
  in
  let server = Serve.Server.create config in
  (* Graceful shutdown on SIGTERM/SIGINT: the handler only flips an
     atomic flag (async-signal-safe); run's accept loop notices it,
     drains admitted work, answers every waiting client and flushes the
     store before returning. *)
  let request_stop _ = Serve.Server.stop server in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  (* SIGPIPE would kill the daemon when a client disconnects mid-reply *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let bound =
    match (address, Serve.Server.port server) with
    | Serve.Server.Tcp (host, _), Some p -> Printf.sprintf "tcp:%s:%d" host p
    | _ -> Serve.Server.address_to_string address
  in
  Printf.printf "# serving on %s (jobs %d, queue %d)\n%!" bound default_jobs queue;
  Serve.Server.run server;
  let c = Serve.Server.counters server in
  Printf.printf "# drained: %d requests, %d executed, %d rejected, %d protocol errors\n%!"
    c.Serve.Server.c_requests c.Serve.Server.c_completed c.Serve.Server.c_rejected
    c.Serve.Server.c_protocol_errors;
  obs_finish trace metrics profile

let client_cmd_run socket port host command =
  serve_phase @@ fun () ->
  let address = serve_address socket port host in
  let client = Serve.Client.connect address in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close client)
    (fun () ->
      match command with
      | Some "ping" -> print_endline (Serve.Client.request_line client (Serve.Json.to_string Serve.Protocol.ping_json))
      | Some "stats" -> print_endline (Serve.Client.request_line client (Serve.Json.to_string Serve.Protocol.stats_json))
      | Some "health" ->
        print_endline (Serve.Client.request_line client (Serve.Json.to_string Serve.Protocol.health_json))
      | Some "list-targets" ->
        print_endline
          (Serve.Client.request_line client (Serve.Json.to_string Serve.Protocol.list_targets_json))
      | Some "shutdown" ->
        print_endline (Serve.Client.request_line client (Serve.Json.to_string Serve.Protocol.shutdown_json))
      | Some other ->
        cli_error usage_code "unknown client command %s (ping|stats|health|list-targets|shutdown)"
          other
      | None -> (
        (* pipe mode: one JSON request per stdin line, one reply per line *)
        try
          while true do
            let line = String.trim (input_line stdin) in
            if line <> "" then print_endline (Serve.Client.request_line client line)
          done
        with End_of_file -> ()))

(* -- cmdliner wiring ---------------------------------------------------- *)

let source_arg =
  Arg.(
    non_empty
    & opt_all file []
    & info [ "s"; "source" ] ~docv:"CSV" ~doc:"Source table CSV file (repeatable).")

let target_arg =
  Arg.(
    non_empty
    & opt_all file []
    & info [ "t"; "target" ] ~docv:"CSV" ~doc:"Target table CSV file (repeatable).")

let tau_arg =
  Arg.(value & opt float 0.5 & info [ "tau" ] ~doc:"StandardMatch confidence threshold.")

let omega_arg =
  Arg.(value & opt float 0.2 & info [ "omega" ] ~doc:"View improvement threshold.")

let late_arg =
  Arg.(value & flag & info [ "late" ] ~doc:"Use LateDisjuncts instead of EarlyDisjuncts.")

let select_arg =
  Arg.(
    value
    & opt string "qual"
    & info [ "select" ] ~docv:"qual|multi|clio"
        ~doc:"SelectContextualMatches policy (clio enables the join rules).")

let algorithm_arg =
  Arg.(
    value
    & opt string "src"
    & info [ "algorithm" ] ~docv:"naive|src|tgt|cluster" ~doc:"InferCandidateViews implementation.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel runtime; 0 (the default) means \
           auto-detect, 1 forces the sequential path.  Results are identical \
           for every value.")

let where_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "where" ] ~docv:"COND"
        ~doc:"Pre-filter source tables with a condition, e.g. \"type = 'book'\".")

let mode_arg =
  Arg.(
    value
    & vflag Relational.Csv_io.Strict
        [
          ( Relational.Csv_io.Strict,
            info [ "strict" ]
              ~doc:"Abort ingestion on any malformed CSV row (the default)." );
          ( Relational.Csv_io.Lenient,
            info [ "lenient" ]
              ~doc:
                "Quarantine malformed CSV rows (reported on stderr) instead of \
                 aborting; the run degrades rather than fails." );
        ])

let timeout_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:
          "Cooperative matching deadline in milliseconds: scoring units not \
           started when it expires are skipped and reported, and the partial \
           result is returned.")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Persistent profile store directory (created if missing): column \
           artefacts computed by this run are saved there, and a later run \
           over unchanged inputs starts warm, skipping profile recomputation \
           while producing byte-identical matches.  Corrupt or stale shard \
           files are quarantined and rebuilt, never fatal.")

let store_readonly_arg =
  Arg.(
    value
    & flag
    & info [ "store-readonly" ]
        ~doc:
          "Open --store without writing anything back: no flush, and \
           quarantined files are left in place.")

let plan_arg =
  Arg.(
    value
    & opt string "default"
    & info [ "plan" ] ~docv:"SPEC"
        ~doc:
          "Candidate filter: $(b,default) scores every (matcher, source, \
           target) pair; $(b,filter[:K[,TAU]]) retrieves the top-$(b,K) \
           (default 16) q-gram candidate columns per textual source \
           attribute (cosine >= TAU) and only scores those with the \
           q-gram, word and value-overlap matchers.  A filter prints a \
           '# plan' line with the pairs it scored and pruned.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a JSON-lines span trace of the run to $(docv): one object \
           per completed span (id, parent, path, ordinal, start_us, dur_us).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write aggregated observability metrics to $(docv) as JSON: \
           per-stage span durations, counters (rows read, views scored, \
           cache hits/misses), histograms, and pool utilization.")

let profile_arg =
  Arg.(
    value
    & flag
    & info [ "profile" ]
        ~doc:
          "Print a per-stage span tree (count x total time) on stderr after \
           the run.")

let out_dir_arg =
  Arg.(value & opt string "mapped" & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory.")

let match_cmd =
  let doc = "find (contextual) schema matches between CSV samples" in
  Cmd.v (Cmd.info "match" ~doc)
    Term.(
      const match_cmd_run $ source_arg $ target_arg $ tau_arg $ omega_arg $ late_arg
      $ select_arg $ algorithm_arg $ seed_arg $ where_arg $ jobs_arg $ mode_arg $ timeout_arg
      $ store_arg $ store_readonly_arg $ plan_arg $ trace_arg $ metrics_arg $ profile_arg)

let map_cmd =
  let doc = "match, generate the Clio-style mapping, execute it to CSV" in
  Cmd.v (Cmd.info "map" ~doc)
    Term.(
      const map_cmd_run $ source_arg $ target_arg $ tau_arg $ omega_arg $ late_arg
      $ select_arg $ algorithm_arg $ seed_arg $ where_arg $ jobs_arg $ mode_arg $ timeout_arg
      $ store_arg $ store_readonly_arg $ plan_arg $ trace_arg $ metrics_arg $ profile_arg
      $ out_dir_arg)

let demo_cmd =
  let doc = "run a built-in scenario (retail or grades)" in
  let scenario =
    Arg.(value & pos 0 string "retail" & info [] ~docv:"SCENARIO" ~doc:"retail|grades")
  in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const demo_cmd_run $ scenario)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path to serve on / connect to.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"TCP port to serve on / connect to (0 binds an ephemeral port).")

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"TCP host to bind / connect to.")

let queue_arg =
  Arg.(
    value
    & opt int 64
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Bounded executor queue (admission control): a match arriving while \
           $(docv) requests are already pending is rejected immediately with a \
           structured \"busy\" reply instead of queueing without bound.")

let max_request_bytes_arg =
  Arg.(
    value
    & opt int (64 * 1024 * 1024)
    & info [ "max-request-bytes" ] ~docv:"BYTES"
        ~doc:
          "Request lines larger than this are answered with a structured \
           \"oversized\" reply and skipped; the connection (and the daemon) \
           live on.")

let flush_every_arg =
  Arg.(
    value
    & opt int 0
    & info [ "flush-every" ] ~docv:"N"
        ~doc:
          "Flush the profile store every $(docv) completed match requests \
           instead of only at shutdown, bounding what a crash can lose.  0 \
           (the default) keeps the shutdown-only behaviour.")

let breaker_threshold_arg =
  Arg.(
    value
    & opt int 3
    & info [ "breaker-threshold" ] ~docv:"N"
        ~doc:
          "Consecutive scoring failures that trip a registered target's \
           circuit breaker open.")

let breaker_cooldown_arg =
  Arg.(
    value
    & opt int 1000
    & info [ "breaker-cooldown-ms" ] ~docv:"MS"
        ~doc:
          "How long a tripped breaker rejects matches (structured \
           \"degraded\" replies) before letting one half-open trial request \
           through.")

let fault_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "fault" ] ~docv:"SPEC"
        ~doc:
          "Arm a deterministic fault site for the daemon's lifetime \
           (repeatable; chaos testing).  $(docv) is \
           site[:rate[:seed[:behaviour]]] with behaviour raise (default), \
           torn=FRACTION or latency=MS — e.g. \
           store-shard-write:0.5:7:torn=0.6.")

let serve_cmd =
  let doc = "serve schema matching over a Unix/TCP socket" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Long-lived daemon speaking a line-delimited JSON protocol: \
         $(b,register-target) prepares a target schema once (warmed profiles, \
         frozen scoring kernel); $(b,match) runs ContextMatch of the posted \
         source sample against a registered target, with the same knobs and \
         defaults as the one-shot $(b,match) command and byte-identical \
         results; $(b,stats) reports counters; $(b,shutdown) drains and \
         exits.  SIGTERM/SIGINT also drain gracefully: admitted requests \
         finish, replies are written, the store is flushed.";
      `P
        "With $(b,--timeout-ms), each request gets a deadline starting at \
         admission — time spent queued counts against it.";
    ]
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(
      const serve_cmd_run $ socket_arg $ port_arg $ host_arg $ jobs_arg $ queue_arg
      $ timeout_arg $ max_request_bytes_arg $ store_arg $ store_readonly_arg
      $ flush_every_arg $ breaker_threshold_arg $ breaker_cooldown_arg $ fault_arg
      $ trace_arg $ metrics_arg $ profile_arg)

let client_cmd =
  let doc = "talk to a running ctxmatch daemon" in
  let command =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"CMD"
          ~doc:
            "One-off command: ping|stats|health|list-targets|shutdown.  Omit to \
             pipe raw JSON request lines from stdin (one reply line each) — \
             including update-target deltas.")
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(const client_cmd_run $ socket_arg $ port_arg $ host_arg $ command)

let store_verify_cmd =
  let doc = "audit a profile store directory for crash damage" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Walks every file of a store directory and classifies it: \
         $(b,clean) shards parse end to end, $(b,truncated) shards lost \
         their END footer to a torn write, $(b,corrupt) shards fail to \
         parse some other way, $(b,quarantined) files were already set \
         aside by the recovery path.  Leftover temp files from an \
         interrupted atomic write are counted and harmless.  Nothing is \
         modified.  Exits 0 when every file is clean or quarantined, 6 \
         otherwise.";
    ]
  in
  let dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Store directory.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the audit as one JSON object (per-file entries plus \
             classification counts, delta-record count and index state) \
             instead of the human listing.  The exit code is unchanged.")
  in
  Cmd.v (Cmd.info "store-verify" ~doc ~man) Term.(const store_verify_cmd_run $ dir $ json)

let () =
  let doc = "contextual schema matching (VLDB 2006 reproduction)" in
  let info = Cmd.info "ctxmatch" ~version:"1.0.0" ~doc in
  let code =
    try
      Cmd.eval ~catch:false
        (Cmd.group info
           [
             match_cmd;
             map_cmd;
             demo_cmd;
             serve_cmd;
             client_cmd;
             store_verify_cmd;
           ])
    with
    | Cli_error { code; message } ->
      Printf.eprintf "ctxmatch: %s\n%!" message;
      code
    | e ->
      Printf.eprintf "ctxmatch: %s\n%!" (Printexc.to_string e);
      match_code
  in
  (* cmdliner reports its own CLI parse errors as 124; fold them into
     the documented usage exit code *)
  exit (if code = Cmd.Exit.cli_error then usage_code else code)

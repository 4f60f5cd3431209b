type address = Unix_sock of string | Tcp of string * int

let address_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

type config = {
  address : address;
  default_jobs : int;
  queue_capacity : int;
  default_timeout_ms : int option;
  max_request_bytes : int;
  store_dir : string option;
  store_readonly : bool;
  breaker_threshold : int;
  breaker_cooldown_ms : int;
  flush_every : int;
}

let default_config address =
  {
    address;
    default_jobs = 1;
    queue_capacity = 64;
    default_timeout_ms = None;
    max_request_bytes = 64 * 1024 * 1024;
    store_dir = None;
    store_readonly = false;
    breaker_threshold = 3;
    breaker_cooldown_ms = 1000;
    flush_every = 0;
  }

exception Bind_error of { address : string; reason : string }

(* Per-target circuit breaker: Closed admits, Open rejects until the
   cooldown passes, then one trial request runs Half_open — success
   closes the breaker, failure re-opens it.  Guarded by [t.tm]. *)
type breaker_state = Br_closed | Br_open of int64 (* tripped-at, ns *) | Br_half_open

type breaker = {
  mutable b_state : breaker_state;
  mutable b_failures : int;  (* consecutive scoring failures *)
  mutable b_trips : int;
}

let breaker_state_name = function
  | Br_closed -> "closed"
  | Br_open _ -> "open"
  | Br_half_open -> "half-open"

(* A registered target: the prepared artefact plus the database it was
   prepared from (needed again at match time for view inference), and
   the delta-maintenance handle that advances both.  Each prepared
   artefact value is itself immutable — an update installs a *new* one
   (under [t.tm]), so a match reading the previous generation stays
   valid.  All mutation happens on the executor thread. *)
type target_entry = {
  mutable te_db : Relational.Database.t;
  mutable te_prepared : Matching.Standard_match.prepared_target;
  te_issues : Robust.Error.t list;  (* ingest quarantine at registration *)
  te_breaker : breaker;
  te_maintain : Delta.Maintain.t;
  te_plan : (int * float) option;  (* default candidate filter for matches against this target *)
}

type work =
  | W_register of {
      w_name : string;
      w_db : Relational.Database.t;
      w_kernel : bool;
      w_plan : (int * float) option;
      w_ingest : Robust.Error.t list;
    }
  | W_match of {
      w_mr : Protocol.match_request;
      w_source : Relational.Database.t;
      w_ingest : Robust.Error.t list;
    }
  | W_update of { w_ur : Protocol.update_request }

type job = {
  work : work;
  deadline : Robust.Deadline.t;  (* starts at admission: queue wait counts *)
  enqueued_ns : int64;
  jm : Mutex.t;
  jc : Condition.t;
  mutable reply : Json.t option;
}

type counters = {
  c_requests : int;
  c_accepted : int;
  c_completed : int;
  c_rejected : int;
  c_protocol_errors : int;
  c_queue_depth : int;
  c_inflight : int;
  c_connections : int;
  c_targets : int;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int option;
  store : Store.t option;
  stopping : bool Atomic.t;
  (* executor queue; qm also guards [inflight] *)
  qm : Mutex.t;
  qc : Condition.t;
  queue : job Queue.t;
  mutable inflight : bool;
  (* registry of prepared targets *)
  tm : Mutex.t;
  targets : (string, target_entry) Hashtbl.t;
  (* live connections, so shutdown can unblock their readers *)
  cm : Mutex.t;
  conns : (int, Unix.file_descr) Hashtbl.t;
  mutable conn_threads : Thread.t list;
  mutable next_conn : int;
  (* counters *)
  sm : Mutex.t;
  mutable n_requests : int;
  mutable n_accepted : int;
  mutable n_completed : int;
  mutable n_rejected : int;
  mutable n_protocol_errors : int;
  mutable n_internal : int;
  mutable n_socket_faults : int;
  mutable n_flush_failures : int;
  mutable flush_failed : bool;  (* last flush attempt failed *)
  (* executor-thread-local: completed match requests since last flush *)
  mutable matches_since_flush : int;
}

let obs_incr name = if !Obs.Recorder.enabled then Obs.Metrics.incr name
let obs_observe_ns name ns = if !Obs.Recorder.enabled then Obs.Metrics.observe_ns name ns

let count t f =
  Mutex.lock t.sm;
  f t;
  Mutex.unlock t.sm

(* --- socket setup ------------------------------------------------------ *)

let bind_error address e =
  raise (Bind_error { address; reason = Unix.error_message e })

(* A Unix-socket file survives an unclean daemon death.  Probe it: if a
   connect succeeds someone is serving — genuine address-in-use; if it
   is refused the file is stale and may be reclaimed. *)
let reclaim_stale_socket path =
  match (Unix.stat path).Unix.st_kind with
  | Unix.S_SOCK ->
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      Fun.protect
        ~finally:(fun () -> try Unix.close probe with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.connect probe (Unix.ADDR_UNIX path) with
          | () -> true
          | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> false
          | exception Unix.Unix_error _ -> true)
    in
    if live then bind_error ("unix:" ^ path) Unix.EADDRINUSE else Unix.unlink path
  | _ | (exception Unix.Unix_error (Unix.ENOENT, _, _)) -> ()

let listen_on address =
  let addr_string = address_to_string address in
  match address with
  | Unix_sock path ->
    reclaim_stale_socket path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind fd (Unix.ADDR_UNIX path);
       Unix.listen fd 64
     with Unix.Unix_error (e, _, _) ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       bind_error addr_string e);
    (fd, None)
  | Tcp (host, port) ->
    let inet =
      if host = "" || host = "*" then Unix.inet_addr_loopback
      else
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
            raise (Bind_error { address = addr_string; reason = "unknown host " ^ host })
          | { Unix.h_addr_list; _ } -> h_addr_list.(0))
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (inet, port));
       Unix.listen fd 64
     with Unix.Unix_error (e, _, _) ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       bind_error addr_string e);
    let bound =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> Some p
      | _ -> None
    in
    (fd, bound)

let create cfg =
  let store =
    Option.map (fun dir -> Store.open_dir ~readonly:cfg.store_readonly dir) cfg.store_dir
  in
  let listen_fd, bound_port = listen_on cfg.address in
  {
    cfg;
    listen_fd;
    bound_port;
    store;
    stopping = Atomic.make false;
    qm = Mutex.create ();
    qc = Condition.create ();
    queue = Queue.create ();
    inflight = false;
    tm = Mutex.create ();
    targets = Hashtbl.create 8;
    cm = Mutex.create ();
    conns = Hashtbl.create 16;
    conn_threads = [];
    next_conn = 0;
    sm = Mutex.create ();
    n_requests = 0;
    n_accepted = 0;
    n_completed = 0;
    n_rejected = 0;
    n_protocol_errors = 0;
    n_internal = 0;
    n_socket_faults = 0;
    n_flush_failures = 0;
    flush_failed = false;
    matches_since_flush = 0;
  }

let port t = t.bound_port
let stop t = Atomic.set t.stopping true

(* --- replies ------------------------------------------------------------ *)

let reject_reply t r =
  count t (fun t -> t.n_protocol_errors <- t.n_protocol_errors + 1);
  obs_incr "serve.protocol_errors";
  Protocol.reject_to_json r

(* Admission rejections (busy / shutting-down / timeout) are service
   answers, not protocol errors — counted separately. *)
let admission_reply t r =
  count t (fun t -> t.n_rejected <- t.n_rejected + 1);
  obs_incr "serve.rejected";
  Protocol.reject_to_json r

let internal_reject e =
  Protocol.reject ~severity:Robust.Error.Fatal ~code:"internal"
    (Printf.sprintf "request failed: %s" (Printexc.to_string e))

(* --- the executor ------------------------------------------------------- *)

(* A failed flush must never take the daemon down: the dirty shards
   stay dirty (Store.flush only clears the flag after a successful
   write), so a later flush retries with the full payload.  The
   failure is remembered for [health]. *)
let store_flush t =
  match t.store with
  | Some store when not (Store.readonly store) -> (
    match Store.flush store with
    | () -> count t (fun t -> t.flush_failed <- false)
    | exception e ->
      count t (fun t ->
          t.n_flush_failures <- t.n_flush_failures + 1;
          t.flush_failed <- true);
      obs_incr "serve.flush_failures";
      ignore (Printexc.to_string e))
  | _ -> ()

let register_reply t ~name ~db ~kernel ~plan ~ingest =
  let prepared = Matching.Standard_match.prepare_target ?store:t.store ~kernel ~target:db () in
  let maintain = Delta.Maintain.create ?store:t.store ~kernel ~target:db ~prepared () in
  let entry =
    {
      te_db = db;
      te_prepared = prepared;
      te_issues = ingest;
      te_breaker = { b_state = Br_closed; b_failures = 0; b_trips = 0 };
      te_maintain = maintain;
      te_plan = plan;
    }
  in
  Mutex.lock t.tm;
  Hashtbl.replace t.targets name entry;
  Mutex.unlock t.tm;
  store_flush t;
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("target", Json.String name);
      ("tables", Json.Int (List.length (Relational.Database.tables db)));
      ("columns", Json.Int (Matching.Standard_match.prepared_columns prepared));
      ("kernel", Json.Bool (Matching.Standard_match.prepared_kernel prepared));
      ("plan", Json.String (Ctxmatch.Config.candidate_filter_to_string plan));
      ( "issues",
        Protocol.error_strings (ingest @ Matching.Standard_match.prepared_issues prepared) );
    ]

(* Breaker admission, under [t.tm].  [Ok ()] admits (transitioning an
   expired-open breaker to half-open for its trial request); [Error]
   carries the structured degraded reject. *)
let breaker_admit t entry ~target =
  Mutex.lock t.tm;
  let b = entry.te_breaker in
  let verdict =
    match b.b_state with
    | Br_closed | Br_half_open -> Ok ()
    | Br_open tripped_ns ->
      let elapsed_ms =
        Int64.to_int (Int64.div (Int64.sub (Robust.Deadline.now_ns ()) tripped_ns) 1_000_000L)
      in
      if elapsed_ms >= t.cfg.breaker_cooldown_ms then begin
        b.b_state <- Br_half_open;
        Ok ()
      end
      else
        Error
          (Protocol.reject ~code:"degraded"
             (Printf.sprintf
                "circuit breaker open for target %S (%d consecutive failures; retry in %d ms)"
                target b.b_failures
                (t.cfg.breaker_cooldown_ms - elapsed_ms)))
  in
  Mutex.unlock t.tm;
  verdict

let breaker_success t entry =
  Mutex.lock t.tm;
  let b = entry.te_breaker in
  b.b_failures <- 0;
  b.b_state <- Br_closed;
  Mutex.unlock t.tm

let breaker_failure t entry =
  Mutex.lock t.tm;
  let b = entry.te_breaker in
  b.b_failures <- b.b_failures + 1;
  (match b.b_state with
  | Br_half_open ->
    (* the trial failed: straight back to open, fresh cooldown *)
    b.b_state <- Br_open (Robust.Deadline.now_ns ());
    b.b_trips <- b.b_trips + 1;
    obs_incr "serve.breaker_trips"
  | Br_closed when b.b_failures >= t.cfg.breaker_threshold ->
    b.b_state <- Br_open (Robust.Deadline.now_ns ());
    b.b_trips <- b.b_trips + 1;
    obs_incr "serve.breaker_trips"
  | Br_closed | Br_open _ -> ());
  Mutex.unlock t.tm

let match_reply t ~(mr : Protocol.match_request) ~source ~ingest ~deadline =
  Mutex.lock t.tm;
  let entry = Hashtbl.find_opt t.targets mr.Protocol.mr_target in
  Mutex.unlock t.tm;
  match entry with
  | None ->
    admission_reply t
      (Protocol.reject ~code:"unknown-target"
         (Printf.sprintf "unknown target %S (register-target first)" mr.Protocol.mr_target))
  | Some entry -> (
    match breaker_admit t entry ~target:mr.Protocol.mr_target with
    | Error r -> admission_reply t r
    | Ok () ->
    if Robust.Deadline.expired deadline then
      admission_reply t
        (Protocol.reject ~code:"timeout" "request deadline expired while queued")
    else begin
      let jobs =
        match mr.Protocol.mr_jobs with
        | Some j when j > 0 -> j
        | Some _ | None -> t.cfg.default_jobs
      in
      let config =
        {
          Ctxmatch.Config.default with
          tau = mr.Protocol.mr_tau;
          omega = mr.Protocol.mr_omega;
          early_disjuncts = not mr.Protocol.mr_late;
          select = mr.Protocol.mr_select;
          seed = mr.Protocol.mr_seed;
          jobs;
          timeout_ms = mr.Protocol.mr_timeout_ms;
          kernel = mr.Protocol.mr_kernel;
          faults = mr.Protocol.mr_faults;
          (* per-request override wins; otherwise the target's
             registered default filter *)
          candidate_filter = Option.value mr.Protocol.mr_plan ~default:entry.te_plan;
        }
      in
      let infer = Ctxmatch.Context_match.infer_of mr.Protocol.mr_algorithm ~target:entry.te_db in
      (* A deadline expiry is the client's timeout, not the target's
         fault.  Anything else that escapes the contained pipeline is a
         scoring failure the breaker counts — and so is a run the
         containment quarantined into producing nothing at all (no
         matches, no standard matches, only issues): the caller got an
         empty answer either way, and a target doing that repeatedly
         should brown out instead of burning a full scoring pass per
         request. *)
      let result =
        match
          Ctxmatch.Context_match.run ~config ?store:t.store ~prepared:entry.te_prepared ~deadline
            ~infer ~source ~target:entry.te_db ()
        with
        | result ->
          let total_failure =
            result.Ctxmatch.Context_match.matches = []
            && result.Ctxmatch.Context_match.standard = []
            && result.Ctxmatch.Context_match.issues <> []
            && not (Robust.Deadline.expired deadline)
          in
          if total_failure then breaker_failure t entry else breaker_success t entry;
          result
        | exception (Robust.Deadline.Expired _ as e) -> raise e
        | exception e ->
          breaker_failure t entry;
          raise e
      in
      let open Ctxmatch.Context_match in
      Json.Obj
        [
          ("ok", Json.Bool true);
          ("target", Json.String mr.Protocol.mr_target);
          ( "matches",
            Json.List
              (List.map
                 (fun m -> Json.String (Matching.Schema_match.to_string m))
                 result.matches) );
          ("standard", Json.Int (List.length result.standard));
          ("views_scored", Json.Int result.candidate_view_count);
          ("elapsed_ms", Json.Float (result.elapsed_seconds *. 1e3));
          ("cache_hits", Json.Int result.cache_hits);
          ("cache_misses", Json.Int result.cache_misses);
          ("profile_builds", Json.Int result.profile_builds);
          ( "plan",
            Json.String
              (Ctxmatch.Config.candidate_filter_to_string config.Ctxmatch.Config.candidate_filter) );
          ("pairs_scored", Json.Int result.pairs_scored);
          ("pairs_pruned", Json.Int result.pairs_pruned);
          ("issues", Protocol.error_strings result.issues);
          ("ingest_issues", Protocol.error_strings ingest);
        ]
    end)

(* Type one raw JSON row against the target table's schema.  The cell
   typing is strict — an int attribute takes a JSON int, a float
   attribute an int or a float, string/bool attributes their JSON
   counterparts, [null] fits anywhere — so an update can never smuggle
   a differently-typed value past the profile algebra. *)
let typed_row schema ~table row_index cells =
  let attrs = Relational.Schema.attributes schema in
  let n = Array.length attrs in
  if List.length cells <> n then
    Error
      (Printf.sprintf "append row %d has %d cells; table %S has %d attributes" row_index
         (List.length cells) table n)
  else
    let out = Array.make n Relational.Value.Null in
    let rec fill i = function
      | [] -> Ok out
      | cell :: rest -> (
        let attr = attrs.(i) in
        let mismatch got =
          Error
            (Printf.sprintf "append row %d, attribute %S: expected %s, got %s" row_index
               attr.Relational.Attribute.name
               (Relational.Value.ty_to_string attr.Relational.Attribute.ty)
               got)
        in
        match (cell, attr.Relational.Attribute.ty) with
        | Json.Null, _ ->
          out.(i) <- Relational.Value.Null;
          fill (i + 1) rest
        | Json.Int v, Relational.Value.Tint ->
          out.(i) <- Relational.Value.Int v;
          fill (i + 1) rest
        | Json.Int v, Relational.Value.Tfloat ->
          out.(i) <- Relational.Value.Float (float_of_int v);
          fill (i + 1) rest
        | Json.Float v, Relational.Value.Tfloat ->
          out.(i) <- Relational.Value.Float v;
          fill (i + 1) rest
        | Json.Bool v, Relational.Value.Tbool ->
          out.(i) <- Relational.Value.Bool v;
          fill (i + 1) rest
        | Json.String v, Relational.Value.Tstring ->
          out.(i) <- Relational.Value.String v;
          fill (i + 1) rest
        | (Json.Int _ | Json.Float _), _ -> mismatch "a number"
        | Json.Bool _, _ -> mismatch "a boolean"
        | Json.String _, _ -> mismatch "a string"
        | (Json.List _ | Json.Obj _), _ -> mismatch "a nested value")
    in
    fill 0 cells

let typed_rows schema ~table rows =
  let rec go i acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | cells :: rest -> (
      match typed_row schema ~table i cells with
      | Ok row -> go (i + 1) (row :: acc) rest
      | Error _ as e -> e)
  in
  go 0 [] rows

(* Runs on the executor thread, like register/match: Maintain mutates
   the entry's artefacts, and the executor is the only thread allowed
   to do that.  A delta rejected by validation costs a [bad-request];
   an escaping exception (e.g. an injected [Delta_apply] fault) is
   caught by [execute]'s generic handler and leaves the previous
   generation fully intact.  Update failures never touch the circuit
   breaker — it measures scoring health, not client-supplied deltas. *)
let update_reply t ~(ur : Protocol.update_request) =
  Mutex.lock t.tm;
  let entry = Hashtbl.find_opt t.targets ur.Protocol.ur_target in
  Mutex.unlock t.tm;
  match entry with
  | None ->
    admission_reply t
      (Protocol.reject ~code:"unknown-target"
         (Printf.sprintf "unknown target %S (register-target first)" ur.Protocol.ur_target))
  | Some entry -> (
    let bad m = admission_reply t (Protocol.reject ~code:"bad-request" m) in
    let db = Delta.Maintain.target entry.te_maintain in
    match Relational.Database.table_opt db ur.Protocol.ur_table with
    | None ->
      bad
        (Printf.sprintf "target %S has no table %S" ur.Protocol.ur_target ur.Protocol.ur_table)
    | Some tbl -> (
      match
        typed_rows (Relational.Table.schema tbl) ~table:ur.Protocol.ur_table
          ur.Protocol.ur_appends
      with
      | Error m -> bad m
      | Ok appends -> (
        let delta =
          Delta.make ~table:ur.Protocol.ur_table ~appends
            ~deletes:(Array.of_list ur.Protocol.ur_deletes)
        in
        match Delta.Maintain.update entry.te_maintain delta with
        | Error m -> bad m
        | Ok outcome ->
          let target = Delta.Maintain.target entry.te_maintain in
          let prepared = Delta.Maintain.prepared entry.te_maintain in
          Mutex.lock t.tm;
          entry.te_db <- target;
          entry.te_prepared <- prepared;
          Mutex.unlock t.tm;
          store_flush t;
          obs_incr "serve.updates";
          let mode, reason =
            match outcome with
            | Delta.Maintain.Patched -> ("patched", None)
            | Delta.Maintain.Rebuilt reason -> ("rebuilt", Some reason)
          in
          Json.Obj
            (List.filter_map Fun.id
               [
                 Some ("ok", Json.Bool true);
                 Some ("target", Json.String ur.Protocol.ur_target);
                 Some ("table", Json.String ur.Protocol.ur_table);
                 Some ("generation", Json.Int (Delta.Maintain.generation entry.te_maintain));
                 Some ("mode", Json.String mode);
                 Option.map (fun r -> ("reason", Json.String r)) reason;
                 Some
                   ( "rows",
                     Json.Int
                       (Relational.Table.row_count
                          (Relational.Database.table target ur.Protocol.ur_table)) );
                 Some ("appended", Json.Int (List.length ur.Protocol.ur_appends));
                 Some ("deleted", Json.Int (List.length ur.Protocol.ur_deletes));
               ]))))

let execute t job =
  obs_observe_ns "serve.queue_wait_ns" (Int64.sub (Robust.Deadline.now_ns ()) job.enqueued_ns);
  let started = Robust.Deadline.now_ns () in
  let reply =
    try
      match job.work with
      | W_register { w_name; w_db; w_kernel; w_plan; w_ingest } ->
        register_reply t ~name:w_name ~db:w_db ~kernel:w_kernel ~plan:w_plan ~ingest:w_ingest
      | W_match { w_mr; w_source; w_ingest } ->
        match_reply t ~mr:w_mr ~source:w_source ~ingest:w_ingest ~deadline:job.deadline
      | W_update { w_ur } -> update_reply t ~ur:w_ur
    with
    | Robust.Deadline.Expired { stage } ->
      admission_reply t
        (Protocol.reject ~code:"timeout" ("request deadline expired during " ^ stage))
    | e ->
      count t (fun t -> t.n_internal <- t.n_internal + 1);
      obs_incr "serve.internal_errors";
      admission_reply t (internal_reject e)
  in
  obs_observe_ns "serve.request_ns" (Int64.sub (Robust.Deadline.now_ns ()) started);
  count t (fun t -> t.n_completed <- t.n_completed + 1);
  obs_incr "serve.completed";
  (* Periodic durability: with [flush_every] > 0 the executor flushes
     the store every N completed match requests, so a SIGKILL loses at
     most the last N requests' worth of profile work — this is the
     knob the chaos harness turns to put torn-write faults and the
     kill window on the flush path mid-soak. *)
  (match job.work with
  | W_match _ when t.cfg.flush_every > 0 ->
    t.matches_since_flush <- t.matches_since_flush + 1;
    if t.matches_since_flush >= t.cfg.flush_every then begin
      t.matches_since_flush <- 0;
      store_flush t
    end
  | W_match _ | W_register _ | W_update _ -> ());
  Mutex.lock job.jm;
  job.reply <- Some reply;
  Condition.broadcast job.jc;
  Mutex.unlock job.jm

(* All match execution happens here, on one thread: Runtime.Pool takes
   batches from one submitter at a time, and Fault arming is global
   state scoped per run — one executor keeps both safe under any number
   of client connections while the pool parallelises within a request. *)
let executor_loop t =
  let rec loop () =
    Mutex.lock t.qm;
    while Queue.is_empty t.queue && not (Atomic.get t.stopping) do
      Condition.wait t.qc t.qm
    done;
    if Queue.is_empty t.queue then (* stopping && drained *)
      Mutex.unlock t.qm
    else begin
      let job = Queue.pop t.queue in
      t.inflight <- true;
      Mutex.unlock t.qm;
      execute t job;
      Mutex.lock t.qm;
      t.inflight <- false;
      Condition.broadcast t.qc;
      Mutex.unlock t.qm;
      loop ()
    end
  in
  loop ()

(* --- admission ---------------------------------------------------------- *)

let admit t work ~timeout_ms =
  let deadline =
    match timeout_ms with
    | Some ms -> Robust.Deadline.after_ms ms
    | None -> (
      match t.cfg.default_timeout_ms with
      | Some ms -> Robust.Deadline.after_ms ms
      | None -> Robust.Deadline.none)
  in
  let job =
    {
      work;
      deadline;
      enqueued_ns = Robust.Deadline.now_ns ();
      jm = Mutex.create ();
      jc = Condition.create ();
      reply = None;
    }
  in
  Mutex.lock t.qm;
  let verdict =
    if Atomic.get t.stopping then
      Error (Protocol.reject ~code:"shutting-down" "server is shutting down")
    else if Queue.length t.queue >= t.cfg.queue_capacity then
      Error
        (Protocol.reject ~code:"busy"
           (Printf.sprintf "queue full (%d requests pending)" t.cfg.queue_capacity))
    else begin
      Queue.add job t.queue;
      Condition.broadcast t.qc;
      Ok job
    end
  in
  Mutex.unlock t.qm;
  match verdict with
  | Error r -> admission_reply t r
  | Ok job ->
    count t (fun t -> t.n_accepted <- t.n_accepted + 1);
    obs_incr "serve.accepted";
    Mutex.lock job.jm;
    while job.reply = None do
      Condition.wait job.jc job.jm
    done;
    let reply = Option.get job.reply in
    Mutex.unlock job.jm;
    reply

(* --- per-request handling (connection threads) -------------------------- *)

let counters t =
  Mutex.lock t.sm;
  let c_requests = t.n_requests
  and c_accepted = t.n_accepted
  and c_completed = t.n_completed
  and c_rejected = t.n_rejected
  and c_protocol_errors = t.n_protocol_errors in
  Mutex.unlock t.sm;
  Mutex.lock t.qm;
  let c_queue_depth = Queue.length t.queue
  and c_inflight = if t.inflight then 1 else 0 in
  Mutex.unlock t.qm;
  Mutex.lock t.cm;
  let c_connections = Hashtbl.length t.conns in
  Mutex.unlock t.cm;
  Mutex.lock t.tm;
  let c_targets = Hashtbl.length t.targets in
  Mutex.unlock t.tm;
  {
    c_requests;
    c_accepted;
    c_completed;
    c_rejected;
    c_protocol_errors;
    c_queue_depth;
    c_inflight;
    c_connections;
    c_targets;
  }

let stats_reply t =
  let c = counters t in
  Mutex.lock t.tm;
  let targets = Hashtbl.fold (fun name _ acc -> name :: acc) t.targets [] in
  Mutex.unlock t.tm;
  Json.Obj
    [
      ("ok", Json.Bool true);
      ( "stats",
        Json.Obj
          [
            ("requests", Json.Int c.c_requests);
            ("accepted", Json.Int c.c_accepted);
            ("completed", Json.Int c.c_completed);
            ("rejected", Json.Int c.c_rejected);
            ("protocol_errors", Json.Int c.c_protocol_errors);
            ("queue_depth", Json.Int c.c_queue_depth);
            ("queue_capacity", Json.Int t.cfg.queue_capacity);
            ("inflight", Json.Int c.c_inflight);
            ("connections", Json.Int c.c_connections);
            ("targets", Json.Int c.c_targets);
          ] );
      ("targets", Json.List (List.map (fun n -> Json.String n) (List.sort compare targets)));
    ]

(* Registry listing, answered on the connection thread like stats:
   it only reads the table under [t.tm], never blocks on the
   executor.  Generations written by the executor are plain ints —
   a read racing an update sees either the old or the new value. *)
let list_targets_reply t =
  Mutex.lock t.tm;
  let entries = Hashtbl.fold (fun name e acc -> (name, e) :: acc) t.targets [] in
  let rows =
    List.sort (fun (a, _) (b, _) -> String.compare a b) entries
    |> List.map (fun (name, e) ->
           let b = e.te_breaker in
           Json.Obj
             [
               ("name", Json.String name);
               ("generation", Json.Int (Delta.Maintain.generation e.te_maintain));
               ("tables", Json.Int (List.length (Relational.Database.tables e.te_db)));
               ("columns", Json.Int (Matching.Standard_match.prepared_columns e.te_prepared));
               ("kernel", Json.Bool (Matching.Standard_match.prepared_kernel e.te_prepared));
               ("plan", Json.String (Ctxmatch.Config.candidate_filter_to_string e.te_plan));
               ("breaker", Json.String (breaker_state_name b.b_state));
               ("failures", Json.Int b.b_failures);
               ("trips", Json.Int b.b_trips);
             ])
  in
  Mutex.unlock t.tm;
  Json.Obj [ ("ok", Json.Bool true); ("targets", Json.List rows) ]

(* Supervision probe.  Degraded means the daemon is serving but
   something needs attention: a quarantined store shard, a tripped (or
   still-probing) circuit breaker, or a failed last flush. *)
let health_reply t =
  let store_quarantined, store_issues =
    match t.store with
    | Some store ->
      let s = Store.stats store in
      (s.Store.st_quarantined, List.length (Store.issues store))
    | None -> (0, 0)
  in
  Mutex.lock t.tm;
  let breakers =
    Hashtbl.fold
      (fun name entry acc ->
        let b = entry.te_breaker in
        (name, breaker_state_name b.b_state, b.b_failures, b.b_trips) :: acc)
      t.targets []
    |> List.sort compare
  in
  Mutex.unlock t.tm;
  Mutex.lock t.sm;
  let internal = t.n_internal
  and socket_faults = t.n_socket_faults
  and flush_failures = t.n_flush_failures
  and flush_failed = t.flush_failed
  and completed = t.n_completed in
  Mutex.unlock t.sm;
  let breaker_degraded = List.exists (fun (_, s, _, _) -> s <> "closed") breakers in
  let degraded = breaker_degraded || store_quarantined > 0 || flush_failed in
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("status", Json.String (if degraded then "degraded" else "healthy"));
      ( "store",
        Json.Obj
          [
            ("quarantined", Json.Int store_quarantined);
            ("issues", Json.Int store_issues);
            ("flush_failures", Json.Int flush_failures);
            ("flush_failed_last", Json.Bool flush_failed);
          ] );
      ( "breakers",
        Json.List
          (List.map
             (fun (name, state, failures, trips) ->
               Json.Obj
                 [
                   ("target", Json.String name);
                   ("state", Json.String state);
                   ("failures", Json.Int failures);
                   ("trips", Json.Int trips);
                 ])
             breakers) );
      ("internal_errors", Json.Int internal);
      ("socket_faults", Json.Int socket_faults);
      ("completed", Json.Int completed);
    ]

(* CSV payloads parse on the connection thread (cheap relative to
   matching, and it keeps malformed-payload replies off the executor's
   critical path).  Mirrors the CLI's ingestion semantics: Strict
   raises on the first malformed row; Lenient quarantines rows but a
   Fatal issue (unreadable input) still fails the request. *)
exception Ingest_failed of Protocol.reject

let parse_tables ~lenient tables =
  let mode = if lenient then Relational.Csv_io.Lenient else Relational.Csv_io.Strict in
  let parsed =
    List.map
      (fun { Protocol.tp_name; tp_csv } ->
        match Relational.Csv_io.table_of_csv_report ~mode ~name:tp_name tp_csv with
        | table, issues ->
          if
            List.exists
              (fun (i : Robust.Error.t) -> i.Robust.Error.severity = Robust.Error.Fatal)
              issues
          then
            raise
              (Ingest_failed
                 {
                   Protocol.rj_code = "ingest";
                   rj_error =
                     Robust.Error.v ~severity:Robust.Error.Fatal ~table:tp_name
                       Robust.Error.Ingest
                       (Printf.sprintf "table %S unreadable even leniently" tp_name);
                 });
          (table, issues)
        | exception Relational.Csv_io.Parse_error { line; message } ->
          raise
            (Ingest_failed
               {
                 Protocol.rj_code = "ingest";
                 rj_error =
                   Robust.Error.v ~severity:Robust.Error.Fatal ~table:tp_name
                     Robust.Error.Ingest
                     (Printf.sprintf "table %S line %d: %s" tp_name line message);
               }))
      tables
  in
  (List.map fst parsed, List.concat_map snd parsed)

let handle_line t line =
  count t (fun t -> t.n_requests <- t.n_requests + 1);
  obs_incr "serve.requests";
  match Protocol.request_of_line line with
  | Error r -> reject_reply t r
  | Ok Protocol.Ping -> Json.Obj [ ("ok", Json.Bool true); ("pong", Json.Bool true) ]
  | Ok Protocol.Stats -> stats_reply t
  | Ok Protocol.List_targets -> list_targets_reply t
  | Ok Protocol.Health -> health_reply t
  | Ok Protocol.Shutdown ->
    stop t;
    (* wake the executor so an idle daemon drains immediately; the
       accept loop notices the flag on its next select tick *)
    Mutex.lock t.qm;
    Condition.broadcast t.qc;
    Mutex.unlock t.qm;
    Json.Obj [ ("ok", Json.Bool true); ("stopping", Json.Bool true) ]
  | Ok (Protocol.Register_target { rt_name; rt_tables; rt_kernel; rt_plan }) -> (
    match parse_tables ~lenient:false rt_tables with
    | tables, ingest ->
      let db = Relational.Database.make "target" tables in
      admit t
        (W_register
           { w_name = rt_name; w_db = db; w_kernel = rt_kernel; w_plan = rt_plan; w_ingest = ingest })
        ~timeout_ms:None
    | exception Ingest_failed r -> reject_reply t r)
  | Ok (Protocol.Update_target ur) -> admit t (W_update { w_ur = ur }) ~timeout_ms:None
  | Ok (Protocol.Match mr) -> (
    match parse_tables ~lenient:mr.Protocol.mr_lenient mr.Protocol.mr_tables with
    | tables, ingest ->
      let source = Relational.Database.make "source" tables in
      admit t
        (W_match { w_mr = mr; w_source = source; w_ingest = ingest })
        ~timeout_ms:mr.Protocol.mr_timeout_ms
    | exception Ingest_failed r -> reject_reply t r)

(* --- connection I/O ----------------------------------------------------- *)

let write_raw fd s =
  let data = Bytes.of_string s in
  let len = Bytes.length data in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd data !off (len - !off)
  done

(* Reply writes pass through the [Socket_write] fault site, keyed
   ["conn:<id>:<reply-seq>"].  A raising fault drops the connection; a
   torn fault sends a prefix of the reply line first, so the client
   sees a truncated line then EOF — either way the blast radius is one
   connection, never the daemon. *)
let faulted_write ~key fd line =
  let data = line ^ "\n" in
  match Robust.Fault.fire Robust.Fault.Socket_write ~key with
  | Some (Robust.Fault.Torn_write frac) ->
    let n = int_of_float (frac *. float_of_int (String.length data)) in
    (try write_raw fd (String.sub data 0 n) with Unix.Unix_error _ -> ());
    raise (Robust.Fault.Injected { site = Robust.Fault.Socket_write; key })
  | Some Robust.Fault.Raise ->
    raise (Robust.Fault.Injected { site = Robust.Fault.Socket_write; key })
  | Some (Robust.Fault.Latency_ms _) ->
    Robust.Fault.check Robust.Fault.Socket_write ~key;
    write_raw fd data
  | None -> write_raw fd data

let oversized_reject max_bytes =
  Protocol.reject ~code:"oversized"
    (Printf.sprintf "request exceeds %d bytes" max_bytes)

(* Buffered line reader with an explicit oversize mode: once a line
   outgrows [max_request_bytes] we reply immediately, drop bytes until
   the next newline, and keep serving — a client bug costs one request,
   not the connection (and certainly not the daemon). *)
let connection_loop t ~id fd =
  let chunk = Bytes.create 65536 in
  let buf = Buffer.create 4096 in
  let discarding = ref false in
  let reply_seq = ref 0 in
  let read_seq = ref 0 in
  let send line =
    let key = Printf.sprintf "conn:%d:%d" id !reply_seq in
    incr reply_seq;
    faulted_write ~key fd line
  in
  let process_line line =
    let line =
      (* tolerate CRLF clients *)
      let n = String.length line in
      if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
    in
    if line <> "" then send (Json.to_string (handle_line t line))
  in
  let rec drain_buffer () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i ->
      let all = Buffer.contents buf in
      let line = String.sub all 0 i in
      let rest = String.sub all (i + 1) (String.length all - i - 1) in
      Buffer.clear buf;
      Buffer.add_string buf rest;
      if !discarding then discarding := false
      else if String.length line > t.cfg.max_request_bytes then
        send (Json.to_string (reject_reply t (oversized_reject t.cfg.max_request_bytes)))
      else process_line line;
      drain_buffer ()
    | None ->
      if (not !discarding) && Buffer.length buf > t.cfg.max_request_bytes then begin
        send (Json.to_string (reject_reply t (oversized_reject t.cfg.max_request_bytes)));
        Buffer.clear buf;
        discarding := true
      end
      else if !discarding then Buffer.clear buf
  in
  let rec read_loop () =
    Robust.Fault.check Robust.Fault.Socket_read ~key:(Printf.sprintf "conn:%d:%d" id !read_seq);
    incr read_seq;
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain_buffer ();
      read_loop ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) -> ()
  in
  try read_loop () with
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  | Robust.Fault.Injected { site = Robust.Fault.Socket_read | Robust.Fault.Socket_write; _ } ->
    (* an injected socket fault costs this connection, nothing else *)
    count t (fun t -> t.n_socket_faults <- t.n_socket_faults + 1);
    obs_incr "serve.socket_faults"

let spawn_connection t fd =
  Mutex.lock t.cm;
  let id = t.next_conn in
  t.next_conn <- id + 1;
  Hashtbl.replace t.conns id fd;
  Mutex.unlock t.cm;
  let thread =
    Thread.create
      (fun () ->
        Fun.protect
          ~finally:(fun () ->
            Mutex.lock t.cm;
            Hashtbl.remove t.conns id;
            Mutex.unlock t.cm;
            try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> connection_loop t ~id fd))
      ()
  in
  Mutex.lock t.cm;
  t.conn_threads <- thread :: t.conn_threads;
  Mutex.unlock t.cm

(* --- lifecycle ---------------------------------------------------------- *)

let accept_loop t =
  while not (Atomic.get t.stopping) do
    match Unix.select [ t.listen_fd ] [] [] 0.2 with
    | [ _ ], _, _ -> (
      match Unix.accept t.listen_fd with
      | fd, _ -> spawn_connection t fd
      | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) -> ())
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let run t =
  let executor = Thread.create executor_loop t in
  accept_loop t;
  (* Drain, in dependency order: no new connections, no new work (the
     stopping flag rejects admissions), finish every admitted job so
     all waiting connection threads get their reply... *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.cfg.address with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  Mutex.lock t.qm;
  Condition.broadcast t.qc;
  Mutex.unlock t.qm;
  Thread.join executor;
  (* ... then unblock the readers (write side stays open — replies are
     already written by now) and wait for them to finish. *)
  Mutex.lock t.cm;
  Hashtbl.iter
    (fun _ fd -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    t.conns;
  let threads = t.conn_threads in
  t.conn_threads <- [];
  Mutex.unlock t.cm;
  List.iter Thread.join threads;
  store_flush t

let start t = Thread.create run t

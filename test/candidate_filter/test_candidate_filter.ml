(* Candidate-filter suite.

   The filter's central claim (DESIGN.md, "Candidate filter") is that a
   filter wide enough to keep every textual candidate degenerates to
   the unfiltered run exactly — not similar output, byte-identical
   matches, standard matches and confidences — kernel on or off, store
   warm or cold, for every jobs value.  The differential tests here
   hold the filter to it.  The rest covers the spec spelling shared by
   the CLI's --plan and the daemon's "plan" field (parse, exact print,
   round-trip) and the daemon's plan surface. *)

open Relational

let in_temp_dir f =
  let dir = Filename.temp_file "ctxfilter" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

(* --- spec parsing ------------------------------------------------------ *)

let parse = Ctxmatch.Config.candidate_filter_of_string
let print = Ctxmatch.Config.candidate_filter_to_string

let expect_spec input want =
  match parse input with
  | Ok got -> Alcotest.(check bool) (Printf.sprintf "parse %S" input) true (got = want)
  | Error m -> Alcotest.failf "parse %S failed: %s" input m

let expect_spec_error input =
  match parse input with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "parse %S must fail" input

let test_spec_parsing () =
  expect_spec "default" None;
  expect_spec "legacy" None;
  expect_spec "Filter" (Some (16, 0.0));
  expect_spec "filter:8" (Some (8, 0.0));
  expect_spec "filter:8,0.25" (Some (8, 0.25));
  expect_spec " filter:3 , 0.5 " (Some (3, 0.5));
  List.iter expect_spec_error
    [
      "";
      "nonsense";
      "auto";
      "filter:0";
      "filter:-2";
      "filter:x";
      "filter:4,1.5";
      "filter:4,-0.1";
      "filter:4,0.1,9";
    ];
  (* the printer is exact: %g would print 0.123457 and lose the tau *)
  Alcotest.(check string) "exact tau" "filter:4,0.123456789" (print (Some (4, 0.123456789)));
  Alcotest.(check string) "short tau" "filter:4,0.5" (print (Some (4, 0.5)));
  Alcotest.(check string) "zero tau" "filter:4" (print (Some (4, 0.0)));
  Alcotest.(check string) "default" "default" (print None);
  List.iter
    (fun spec ->
      match parse (print spec) with
      | Ok got -> Alcotest.(check bool) "roundtrip" true (got = spec)
      | Error m -> Alcotest.failf "roundtrip %s: %s" (print spec) m)
    [ None; Some (7, 0.0); Some (5, 0.3); Some (4, 0.123456789); Some (2, 1.0) ]

(* parse . print is the identity on every parseable filter *)
let qcheck_roundtrip =
  QCheck.Test.make ~count:500 ~name:"print/parse round-trip"
    QCheck.(option (pair (int_range 1 100_000) (float_range 0.0 1.0)))
    (fun spec -> parse (print spec) = Ok spec)

(* --- differential identity: filtered vs default ------------------------- *)

let fp_match (m : Matching.Schema_match.t) =
  Printf.sprintf "%s|%s|%s|%s.%s|%s|%h" m.src_owner m.src_base m.src_attr m.tgt_table
    m.tgt_attr
    (Condition.to_string m.condition)
    m.confidence

let fingerprint (r : Ctxmatch.Context_match.result) =
  String.concat "\n"
    (List.map fp_match r.Ctxmatch.Context_match.matches
    @ List.map fp_match r.Ctxmatch.Context_match.standard)

let retail_params =
  { Workload.Retail.default_params with rows = 120; target_rows = 60; seed = 42 }

let source_db = Workload.Retail.source retail_params
let target_db = Workload.Retail.target retail_params Workload.Retail.Ryan_eyers

let retail_run ?store ?(jobs = 1) ?(kernel = true) ?candidate_filter () =
  let config = { Ctxmatch.Config.default with jobs; kernel; candidate_filter } in
  let infer = Ctxmatch.Context_match.infer_of `Src_class ~target:target_db in
  Ctxmatch.Context_match.run ~config ?store ~infer ~source:source_db ~target:target_db ()

(* A filter wide enough to keep every textual target (and tau = 0,
   which the index treats inclusively: untouched targets score an
   exact 0.0 >= 0.0) keeps exactly the unfiltered candidate set, so the
   run must be byte-identical to the default — per jobs value,
   kernel on and off, store cold and warm. *)
let test_full_width_filter_is_default () =
  in_temp_dir @@ fun dir ->
  let want = fingerprint (retail_run ()) in
  let wide = (1024, 0.0) in
  List.iter
    (fun kernel ->
      List.iter
        (fun jobs ->
          let r = retail_run ~jobs ~kernel ~candidate_filter:wide () in
          Alcotest.(check string)
            (Printf.sprintf "full-width filter jobs=%d kernel=%b" jobs kernel)
            want (fingerprint r);
          Alcotest.(check int)
            (Printf.sprintf "nothing pruned jobs=%d kernel=%b" jobs kernel)
            0 r.Ctxmatch.Context_match.pairs_pruned)
        [ 1; 4 ])
    [ true; false ];
  (* cold store run, then warm: same fingerprint again *)
  let store = Store.open_dir dir in
  let cold = retail_run ~store ~candidate_filter:wide () in
  Store.flush store;
  Alcotest.(check string) "cold store identical" want (fingerprint cold);
  let warm_store = Store.open_dir dir in
  let warm = retail_run ~store:warm_store ~candidate_filter:wide () in
  Alcotest.(check string) "warm store identical" want (fingerprint warm)

(* The pairs accounting surfaces coherently. *)
let test_plan_accounting () =
  let base = retail_run () in
  Alcotest.(check int) "default prunes nothing" 0 base.Ctxmatch.Context_match.pairs_pruned;
  Alcotest.(check bool) "default scores pairs" true
    (base.Ctxmatch.Context_match.pairs_scored > 0);
  let narrow = retail_run ~candidate_filter:(1, 0.0) () in
  Alcotest.(check bool) "narrow filter prunes" true
    (narrow.Ctxmatch.Context_match.pairs_pruned > 0);
  Alcotest.(check bool) "narrow filter scores fewer pairs" true
    (narrow.Ctxmatch.Context_match.pairs_scored < base.Ctxmatch.Context_match.pairs_scored);
  (* every (matcher, source attr, target col) event is either scored
     or pruned: the filter moves pairs between the two, never drops one *)
  Alcotest.(check int) "scored + pruned conserved"
    base.Ctxmatch.Context_match.pairs_scored
    (narrow.Ctxmatch.Context_match.pairs_scored + narrow.Ctxmatch.Context_match.pairs_pruned)

(* The kernel is an acceleration, never a semantics switch: a filtered
   run scores the same candidates through the kernel and through the
   exact pairwise fallback. *)
let test_filtered_kernel_invariance () =
  List.iter
    (fun k ->
      let candidate_filter = (k, 0.0) in
      let on = retail_run ~kernel:true ~candidate_filter () in
      let off = retail_run ~kernel:false ~candidate_filter () in
      Alcotest.(check string)
        (Printf.sprintf "k=%d kernel on/off identical" k)
        (fingerprint on) (fingerprint off);
      Alcotest.(check int)
        (Printf.sprintf "k=%d same pruning" k)
        on.Ctxmatch.Context_match.pairs_pruned off.Ctxmatch.Context_match.pairs_pruned)
    [ 1; 3 ]

(* Filtered runs are jobs-invariant too, pairs accounting included. *)
let test_filtered_jobs_invariance () =
  let candidate_filter = (2, 0.0) in
  let base = retail_run ~jobs:1 ~candidate_filter () in
  List.iter
    (fun jobs ->
      let r = retail_run ~jobs ~candidate_filter () in
      Alcotest.(check string) (Printf.sprintf "jobs=%d identical" jobs) (fingerprint base)
        (fingerprint r);
      Alcotest.(check int) (Printf.sprintf "jobs=%d pairs_scored" jobs)
        base.Ctxmatch.Context_match.pairs_scored r.Ctxmatch.Context_match.pairs_scored;
      Alcotest.(check int) (Printf.sprintf "jobs=%d pairs_pruned" jobs)
        base.Ctxmatch.Context_match.pairs_pruned r.Ctxmatch.Context_match.pairs_pruned)
    [ 2; 4 ]

(* The spelled default ("default", "legacy") is no filter at all, so
   passing it explicitly is the same as passing nothing; a malformed
   filter handed straight to [build], past the parser, is refused. *)
let test_explicit_default_plan () =
  let matchers = Ctxmatch.Config.default.Ctxmatch.Config.matchers in
  let build ?candidate_filter () =
    Matching.Standard_match.build ~matchers ~jobs:1 ~kernel:true ?candidate_filter
      ~source:source_db ~target:target_db ()
  in
  let implicit_m = build () in
  List.iter
    (fun spelled ->
      let candidate_filter = Result.get_ok (parse spelled) in
      let explicit_m = build ?candidate_filter () in
      List.iter
        (fun tbl ->
          let src_table = Table.name tbl in
          let a = Matching.Standard_match.matches_from implicit_m ~src_table ~tau:0.5 in
          let b = Matching.Standard_match.matches_from explicit_m ~src_table ~tau:0.5 in
          Alcotest.(check (list string))
            (Printf.sprintf "explicit %s identical (%s)" spelled src_table)
            (List.map fp_match a) (List.map fp_match b))
        (Database.tables source_db))
    [ "default"; "legacy" ];
  List.iter
    (fun bad ->
      match build ~candidate_filter:bad () with
      | exception Invalid_argument _ -> ()
      | _ ->
        let k, tau = bad in
        Alcotest.failf "filter k=%d tau=%g must raise Invalid_argument" k tau)
    [ (0, 0.0); (4, -0.5); (4, 1.5); (4, Float.nan) ]

(* --- serve surface ------------------------------------------------------ *)

let csv_payload db =
  List.map
    (fun table -> (Table.name table, Csv_io.table_to_csv table))
    (Database.tables db)

let with_server dir f =
  let address =
    Serve.Server.Unix_sock (Filename.concat dir (Printf.sprintf "p%d.sock" (Unix.getpid ())))
  in
  let server = Serve.Server.create (Serve.Server.default_config address) in
  let thread = Serve.Server.start server in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Thread.join thread)
    (fun () ->
      let client = Serve.Client.connect ~retries:100 ~retry_delay_s:0.05 address in
      Fun.protect ~finally:(fun () -> Serve.Client.close client) (fun () -> f client))

let expect_field json name =
  match Serve.Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "reply missing field %S: %s" name (Serve.Json.to_string json)

let str_field json name =
  match Serve.Json.to_string_opt (expect_field json name) with
  | Some s -> s
  | None -> Alcotest.failf "field %S is not a string" name

let int_field json name =
  match Serve.Json.to_int (expect_field json name) with
  | Some i -> i
  | None -> Alcotest.failf "field %S is not an int" name

(* The daemon's plan surface: registration stores a per-target default
   candidate filter (echoed by register and list-targets), a match
   request can override it, and every match reply reports the filter it
   executed, tau included, with its pairs accounting. *)
let test_serve_plan_surface () =
  in_temp_dir @@ fun dir ->
  with_server dir @@ fun client ->
  let register = Serve.Protocol.register_json ~plan:"filter:2" ~name:"retail" (csv_payload target_db) in
  let reply = Serve.Client.request client register in
  Alcotest.(check string) "register echoes plan" "filter:2" (str_field reply "plan");
  (* list-targets shows the registered default *)
  let listing = Serve.Client.request client Serve.Protocol.list_targets_json in
  (match Serve.Json.to_list_opt (expect_field listing "targets") with
  | Some [ row ] -> Alcotest.(check string) "listed plan" "filter:2" (str_field row "plan")
  | _ -> Alcotest.failf "expected one target row: %s" (Serve.Json.to_string listing));
  (* a match with no plan field runs the target's default *)
  let m1 =
    Serve.Client.request client
      (Serve.Protocol.match_json ~target:"retail" (csv_payload source_db))
  in
  Alcotest.(check string) "target default executed" "filter:2" (str_field m1 "plan");
  Alcotest.(check bool) "pairs accounted" true (int_field m1 "pairs_scored" > 0);
  (* a per-request override wins, and default reports zero pruned *)
  let m2 =
    Serve.Client.request client
      (Serve.Protocol.match_json ~plan:"default" ~target:"retail" (csv_payload source_db))
  in
  Alcotest.(check string) "override executed" "default" (str_field m2 "plan");
  Alcotest.(check int) "default prunes nothing" 0 (int_field m2 "pairs_pruned");
  (* the reply spells the executed filter exactly, tau included *)
  let m3 =
    Serve.Client.request client
      (Serve.Protocol.match_json ~plan:"filter:4,0.123456789" ~target:"retail"
         (csv_payload source_db))
  in
  Alcotest.(check string) "tau reported exactly" "filter:4,0.123456789" (str_field m3 "plan");
  (* a bad plan spec is a structured bad-request, not a dead daemon;
     "auto" is no longer a spec *)
  List.iter
    (fun spec ->
      let bad =
        Serve.Client.request client
          (Serve.Protocol.match_json ~plan:spec ~target:"retail" (csv_payload source_db))
      in
      (match Serve.Json.to_bool (expect_field bad "ok") with
      | Some false -> ()
      | _ -> Alcotest.failf "plan %S must be rejected: %s" spec (Serve.Json.to_string bad));
      Alcotest.(check string) (Printf.sprintf "reject code for %S" spec) "bad-request"
        (str_field bad "code"))
    [ "filter:0"; "auto" ]

let () =
  Alcotest.run "candidate_filter"
    [
      ( "spec",
        [
          Alcotest.test_case "parsing and roundtrip" `Quick test_spec_parsing;
          QCheck_alcotest.to_alcotest qcheck_roundtrip;
        ] );
      ( "differential",
        [
          Alcotest.test_case "full-width filter = default (jobs x kernel x store)" `Quick
            test_full_width_filter_is_default;
          Alcotest.test_case "pairs accounting" `Quick test_plan_accounting;
          Alcotest.test_case "filtered kernel on/off invariance" `Quick
            test_filtered_kernel_invariance;
          Alcotest.test_case "filtered jobs invariance" `Quick test_filtered_jobs_invariance;
          Alcotest.test_case "explicit default plan identical" `Quick test_explicit_default_plan;
        ] );
      ( "serve",
        [ Alcotest.test_case "per-target plan surface" `Quick test_serve_plan_surface ] );
    ]

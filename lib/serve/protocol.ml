type table_payload = { tp_name : string; tp_csv : string }

type match_request = {
  mr_target : string;
  mr_tables : table_payload list;
  mr_tau : float;
  mr_omega : float;
  mr_late : bool;
  mr_select : Ctxmatch.Config.select_policy;
  mr_algorithm : [ `Naive | `Src_class | `Tgt_class | `Cluster ];
  mr_seed : int;
  mr_jobs : int option;
  mr_timeout_ms : int option;
  mr_kernel : bool;
  mr_lenient : bool;
  mr_faults : Robust.Fault.arming list;
  mr_plan : (int * float) option option;
}

(* Appended rows stay raw JSON here: typing a cell needs the target
   table's schema, which only the server's registry knows. *)
type update_request = {
  ur_target : string;
  ur_table : string;
  ur_appends : Json.t list list;
  ur_deletes : int list;
}

type request =
  | Ping
  | Register_target of {
      rt_name : string;
      rt_tables : table_payload list;
      rt_kernel : bool;
      rt_plan : (int * float) option;
    }
  | Match of match_request
  | Update_target of update_request
  | List_targets
  | Stats
  | Health
  | Shutdown

type reject = { rj_code : string; rj_error : Robust.Error.t }

let reject ?(severity = Robust.Error.Degraded) ~code message =
  { rj_code = code; rj_error = Robust.Error.v ~severity Robust.Error.Serve message }

exception Bad of reject

let bad code fmt = Printf.ksprintf (fun m -> raise (Bad (reject ~code:code m))) fmt

(* --- field extraction -------------------------------------------------- *)

let field_opt json name = Json.member name json

let get conv kind json name ~default =
  match field_opt json name with
  | None | Some Json.Null -> default
  | Some v -> (
    match conv v with
    | Some x -> x
    | None -> bad "bad-request" "field %S must be %s" name kind)

let get_required conv kind json name =
  match field_opt json name with
  | None | Some Json.Null -> bad "bad-request" "missing required field %S" name
  | Some v -> (
    match conv v with
    | Some x -> x
    | None -> bad "bad-request" "field %S must be %s" name kind)

let get_float = get Json.to_float "a number"
let get_int_opt json name = get (fun v -> Option.map Option.some (Json.to_int v)) "an integer" json name ~default:None
let get_bool = get Json.to_bool "a boolean"
let get_string = get Json.to_string_opt "a string"

let tables_of json name =
  match field_opt json name with
  | None | Some Json.Null -> bad "bad-request" "missing required field %S" name
  | Some (Json.List l) ->
    if l = [] then bad "bad-request" "field %S must not be empty" name;
    List.map
      (fun entry ->
        let tp_name = get_required Json.to_string_opt "a string" entry "name" in
        let tp_csv = get_required Json.to_string_opt "a string" entry "csv" in
        if tp_name = "" then bad "bad-request" "table name must not be empty";
        { tp_name; tp_csv })
      l
  | Some _ -> bad "bad-request" "field %S must be a list of {name, csv} objects" name

let select_of_string = function
  | "qual" -> Ctxmatch.Config.Qual_table
  | "multi" -> Ctxmatch.Config.Multi_table
  | "clio" -> Ctxmatch.Config.Clio_qual_table
  | other -> bad "bad-request" "unknown selection policy %S (qual|multi|clio)" other

let algorithm_of_string = function
  | "naive" -> `Naive
  | "src" -> `Src_class
  | "tgt" -> `Tgt_class
  | "cluster" -> `Cluster
  | other -> bad "bad-request" "unknown inference algorithm %S (naive|src|tgt|cluster)" other

let faults_of json =
  match field_opt json "faults" with
  | None | Some Json.Null -> []
  | Some (Json.List l) ->
    List.map
      (fun entry ->
        let site_name = get_required Json.to_string_opt "a string" entry "site" in
        let site =
          match Robust.Fault.site_of_string site_name with
          | Some s -> s
          | None -> bad "bad-request" "unknown fault site %S" site_name
        in
        let rate = get_float entry "rate" ~default:1.0 in
        let seed = get Json.to_int "an integer" entry "seed" ~default:0 in
        { Robust.Fault.site; rate; seed })
      l
  | Some _ -> bad "bad-request" "field \"faults\" must be a list of {site, rate, seed} objects"

(* "plan" is a candidate-filter spec string ("default" |
   "filter[:K[,TAU]]"); absent means "no opinion" for a match request
   (use the target's registered filter) and no filter for a
   registration. *)
let plan_of_opt json =
  match field_opt json "plan" with
  | None | Some Json.Null -> None
  | Some v -> (
    match Json.to_string_opt v with
    | None -> bad "bad-request" "field \"plan\" must be a string"
    | Some s -> (
      match Ctxmatch.Config.candidate_filter_of_string s with
      | Ok filter -> Some filter
      | Error msg -> bad "bad-request" "%s" msg))

let rows_of json name =
  match field_opt json name with
  | None | Some Json.Null -> []
  | Some (Json.List l) ->
    List.map
      (function
        | Json.List cells -> cells
        | _ -> bad "bad-request" "field %S must be a list of row arrays" name)
      l
  | Some _ -> bad "bad-request" "field %S must be a list of row arrays" name

let deletes_of json name =
  match field_opt json name with
  | None | Some Json.Null -> []
  | Some (Json.List l) ->
    List.map
      (fun v ->
        match Json.to_int v with
        | Some i -> i
        | None -> bad "bad-request" "field %S must be a list of integer row indices" name)
      l
  | Some _ -> bad "bad-request" "field %S must be a list of integer row indices" name

let update_of_json json =
  let r =
    {
      ur_target = get_required Json.to_string_opt "a string" json "target";
      ur_table = get_required Json.to_string_opt "a string" json "table";
      ur_appends = rows_of json "append_rows";
      ur_deletes = deletes_of json "delete_rows";
    }
  in
  if r.ur_appends = [] && r.ur_deletes = [] then
    bad "bad-request"
      "update-target requires at least one entry in \"append_rows\" or \"delete_rows\"";
  r

(* Defaults mirror the one-shot CLI flag defaults, so an empty match
   request scores exactly like `ctxmatch match` with no flags. *)
let match_of_json json =
  {
    mr_target = get_required Json.to_string_opt "a string" json "target";
    mr_tables = tables_of json "tables";
    mr_tau = get_float json "tau" ~default:0.5;
    mr_omega = get_float json "omega" ~default:0.2;
    mr_late = get_bool json "late" ~default:false;
    mr_select = select_of_string (get_string json "select" ~default:"qual");
    mr_algorithm = algorithm_of_string (get_string json "algorithm" ~default:"src");
    mr_seed = get Json.to_int "an integer" json "seed" ~default:42;
    mr_jobs = get_int_opt json "jobs";
    mr_timeout_ms = get_int_opt json "timeout_ms";
    mr_kernel = get_bool json "kernel" ~default:true;
    mr_lenient = get_bool json "lenient" ~default:false;
    mr_faults = faults_of json;
    mr_plan = plan_of_opt json;
  }

let request_of_line line =
  match Json.parse line with
  | exception Json.Parse_error m -> Error (reject ~code:"invalid-json" ("invalid JSON: " ^ m))
  | json -> (
    try
      match json with
      | Json.Obj _ -> (
        match Json.member "cmd" json with
        | None -> Error (reject ~code:"bad-request" "missing required field \"cmd\"")
        | Some cmd -> (
          match Json.to_string_opt cmd with
          | None -> Error (reject ~code:"bad-request" "field \"cmd\" must be a string")
          | Some "ping" -> Ok Ping
          | Some "stats" -> Ok Stats
          | Some "health" -> Ok Health
          | Some "shutdown" -> Ok Shutdown
          | Some "register-target" ->
            Ok
              (Register_target
                 {
                   rt_name = get_required Json.to_string_opt "a string" json "name";
                   rt_tables = tables_of json "tables";
                   rt_kernel = get_bool json "kernel" ~default:true;
                   rt_plan = Option.join (plan_of_opt json);
                 })
          | Some "match" -> Ok (Match (match_of_json json))
          | Some "update-target" -> Ok (Update_target (update_of_json json))
          | Some "list-targets" -> Ok List_targets
          | Some other ->
            Error
              (reject ~code:"unknown-command"
                 (Printf.sprintf
                    "unknown command %S \
                     (ping|register-target|update-target|list-targets|match|stats|health|shutdown)"
                    other))))
      | _ -> Error (reject ~code:"bad-request" "request must be a JSON object")
    with Bad r -> Error r)

(* --- responses --------------------------------------------------------- *)

let reject_to_json r =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ("code", Json.String r.rj_code);
      ( "error",
        Json.Obj
          [
            ("stage", Json.String (Robust.Error.stage_name r.rj_error.Robust.Error.stage));
            ( "severity",
              Json.String (Robust.Error.severity_name r.rj_error.Robust.Error.severity) );
            ("message", Json.String r.rj_error.Robust.Error.message);
          ] );
    ]

let error_strings issues =
  Json.List (List.map (fun i -> Json.String (Robust.Error.to_string i)) issues)

(* --- request builders -------------------------------------------------- *)

let ping_json = Json.Obj [ ("cmd", Json.String "ping") ]
let list_targets_json = Json.Obj [ ("cmd", Json.String "list-targets") ]
let stats_json = Json.Obj [ ("cmd", Json.String "stats") ]
let health_json = Json.Obj [ ("cmd", Json.String "health") ]
let shutdown_json = Json.Obj [ ("cmd", Json.String "shutdown") ]

let tables_json tables =
  Json.List
    (List.map
       (fun (name, csv) ->
         Json.Obj [ ("name", Json.String name); ("csv", Json.String csv) ])
       tables)

let register_json ?(kernel = true) ?plan ~name tables =
  Json.Obj
    ([
       ("cmd", Json.String "register-target");
       ("name", Json.String name);
       ("tables", tables_json tables);
       ("kernel", Json.Bool kernel);
     ]
    @ match plan with None -> [] | Some s -> [ ("plan", Json.String s) ])

let update_json ?(appends = []) ?(deletes = []) ~target ~table () =
  Json.Obj
    [
      ("cmd", Json.String "update-target");
      ("target", Json.String target);
      ("table", Json.String table);
      ("append_rows", Json.List (List.map (fun row -> Json.List row) appends));
      ("delete_rows", Json.List (List.map (fun i -> Json.Int i) deletes));
    ]

let fault_json (a : Robust.Fault.arming) =
  Json.Obj
    [
      ("site", Json.String (Robust.Fault.site_name a.Robust.Fault.site));
      ("rate", Json.Float a.Robust.Fault.rate);
      ("seed", Json.Int a.Robust.Fault.seed);
    ]

let match_json ?tau ?omega ?late ?select ?algorithm ?seed ?jobs ?timeout_ms ?kernel ?lenient
    ?faults ?plan ~target tables =
  let optional name conv v = Option.map (fun v -> (name, conv v)) v in
  Json.Obj
    (List.filter_map Fun.id
       [
         Some ("cmd", Json.String "match");
         Some ("target", Json.String target);
         Some ("tables", tables_json tables);
         optional "tau" (fun v -> Json.Float v) tau;
         optional "omega" (fun v -> Json.Float v) omega;
         optional "late" (fun v -> Json.Bool v) late;
         optional "select" (fun v -> Json.String v) select;
         optional "algorithm" (fun v -> Json.String v) algorithm;
         optional "seed" (fun v -> Json.Int v) seed;
         optional "jobs" (fun v -> Json.Int v) jobs;
         optional "timeout_ms" (fun v -> Json.Int v) timeout_ms;
         optional "kernel" (fun v -> Json.Bool v) kernel;
         optional "lenient" (fun v -> Json.Bool v) lenient;
         optional "faults" (fun l -> Json.List (List.map fault_json l)) faults;
         optional "plan" (fun v -> Json.String v) plan;
       ])

type select_policy =
  | Qual_table
  | Multi_table
  | Clio_qual_table

type t = {
  tau : float;
  omega : float;
  early_disjuncts : bool;
  select : select_policy;
  significance : float;
  train_fraction : float;
  seed : int;
  max_naive_partitions : int;
  categorical_params : Relational.Categorical.params;
  matchers : Matching.Matcher.t list;
  gated_confidence : bool;
  jobs : int;
  timeout_ms : int option;
  faults : Robust.Fault.arming list;
  kernel : bool;
  candidate_filter : (int * float) option;
}

let default =
  {
    tau = 0.5;
    omega = 0.2;
    early_disjuncts = true;
    select = Qual_table;
    significance = 0.95;
    train_fraction = 2.0 /. 3.0;
    seed = 42;
    max_naive_partitions = 2048;
    categorical_params = Relational.Categorical.default_params;
    matchers = Matching.Matchers.default_suite;
    gated_confidence = true;
    jobs = Domain.recommended_domain_count ();
    timeout_ms = None;
    faults = [];
    kernel = true;
    candidate_filter = None;
  }

let with_seed t seed = { t with seed }
let with_timeout_ms t timeout_ms = { t with timeout_ms }
let with_jobs t jobs = { t with jobs }
let with_tau t tau = { t with tau }
let with_omega t omega = { t with omega }
let early t = { t with early_disjuncts = true }
let late t = { t with early_disjuncts = false }
let with_kernel t kernel = { t with kernel }

(* The external spelling of [candidate_filter], shared by the CLI's
   [--plan] and the daemon's "plan" field. *)
let default_filter_k = 16

(* Shortest decimal that reads back to the same float, so a printed
   tau always parses to the tau that was printed. *)
let exact_float x =
  let rec go prec =
    let s = Printf.sprintf "%.*g" prec x in
    if prec >= 17 || float_of_string s = x then s else go (prec + 1)
  in
  go 1

let candidate_filter_to_string = function
  | None -> "default"
  | Some (k, tau) when tau = 0.0 -> Printf.sprintf "filter:%d" k
  | Some (k, tau) -> Printf.sprintf "filter:%d,%s" k (exact_float tau)

let candidate_filter_of_string s =
  let s = String.trim (String.lowercase_ascii s) in
  let err m = Error (Printf.sprintf "plan spec %S: %s" s m) in
  let parse_k k =
    match int_of_string_opt (String.trim k) with
    | Some k when k > 0 -> Ok k
    | Some _ | None -> err "k must be a positive integer"
  in
  match s with
  | "default" | "legacy" -> Ok None
  | "filter" -> Ok (Some (default_filter_k, 0.0))
  | _ when String.starts_with ~prefix:"filter:" s -> (
    match String.split_on_char ',' (String.sub s 7 (String.length s - 7)) with
    | [ k ] -> Result.map (fun k -> Some (k, 0.0)) (parse_k k)
    | [ k; tau ] -> (
      match (parse_k k, float_of_string_opt (String.trim tau)) with
      (* [+. 0.0] folds -0 into 0, which prints back as "filter:K" *)
      | Ok k, Some tau when tau >= 0.0 && tau <= 1.0 -> Ok (Some (k, tau +. 0.0))
      | Ok _, _ -> err "tau must be a float in [0,1]"
      | (Error _ as e), _ -> e)
    | _ -> err "expected filter:K or filter:K,TAU")
  | _ -> Error (Printf.sprintf "unknown plan spec %S (expected default or filter[:K[,TAU]])" s)

(** Tuning knobs of the ContextMatch algorithm (paper Fig. 5 and §5).

    Defaults: tau = 0.5 and significance T = 0.95 as in §5; omega = 0.2,
    the centre of this matcher's plateau (the paper's 0.5 lives on its
    own confidence scale — see EXPERIMENTS.md, "Calibration"). *)

type select_policy =
  | Qual_table  (** best consistent source table / view set per target table (§3.4) *)
  | Multi_table  (** best single match per target attribute (§3.4) *)
  | Clio_qual_table
      (** QualTable extended with the §4.3 join rules (§5.7); required
          for attribute normalization *)

type t = {
  tau : float;  (** StandardMatch acceptance threshold *)
  omega : float;  (** view improvement threshold of SelectContextualMatches *)
  early_disjuncts : bool;
      (** true = EarlyDisjuncts (disjunctive conditions in candidate
          views, single best view selected); false = LateDisjuncts *)
  select : select_policy;
  significance : float;  (** T of the ClusteredViewGen significance test *)
  train_fraction : float;  (** held-out split for classifier evaluation *)
  seed : int;  (** root of all randomness *)
  max_naive_partitions : int;
      (** cap on the number of disjunctive families NaiveInfer
          enumerates under EarlyDisjuncts (Bell-number explosion guard) *)
  categorical_params : Relational.Categorical.params;
  matchers : Matching.Matcher.t list;
  gated_confidence : bool;
      (** score-gated confidence (phi(z) * sqrt raw) instead of the pure
          z-score confidence; see DESIGN.md and the ablation bench *)
  jobs : int;
      (** worker domains for the parallel runtime (default
          [Domain.recommended_domain_count ()]); [jobs <= 1] runs the
          exact sequential path.  Results are identical either way —
          see DESIGN.md, "Deterministic multicore runtime" *)
  timeout_ms : int option;
      (** cooperative deadline for one {!Context_match.run}: once it
          expires, not-yet-started scoring units are quarantined and
          reported instead of computed, and the run returns the partial
          result (default [None] = unlimited; see DESIGN.md, "Failure
          semantics") *)
  faults : Robust.Fault.arming list;
      (** fault-injection sites armed for the duration of a run
          (default [[]]); used by the deterministic fault harness —
          see [test/faults] *)
  kernel : bool;
      (** interned q-gram scoring kernel + partitioned view profiles
          (default true).  Scores are bit-identical either way — the
          switch trades nothing but time, and exists for the kernel
          bench's baseline and for differential tests; see DESIGN.md,
          "Scoring kernel" *)
  candidate_filter : (int * float) option;
      (** [Some (k, tau)] restricts the filterable matchers
          ({!Matching.Matchers.filterable}) to the top-[k] target
          columns by q-gram cosine ([>= tau]) per textual source
          attribute; [None] (default) scores every pair.  A filter wide
          enough to keep every textual target gives the default's
          output bit for bit.  See DESIGN.md, "Candidate filter" *)
}

val default : t

val with_seed : t -> int -> t
val with_timeout_ms : t -> int option -> t
val with_jobs : t -> int -> t
val with_tau : t -> float -> t
val with_omega : t -> float -> t
val early : t -> t
val late : t -> t
val with_kernel : t -> bool -> t

val candidate_filter_to_string : (int * float) option -> string
(** [default], [filter:K], or [filter:K,TAU] with [TAU] printed as the
    shortest decimal that reads back to the same float, so
    [candidate_filter_of_string (candidate_filter_to_string f) = Ok f]
    for every parseable [f]. *)

val candidate_filter_of_string : string -> ((int * float) option, string) result
(** Accepts [default] (alias [legacy]), [filter] (= [filter:16]),
    [filter:K] and [filter:K,TAU] with [K > 0] and [TAU] in [0,1],
    case- and space-insensitive.  Anything else, [auto] included, is
    an [Error] with a message. *)

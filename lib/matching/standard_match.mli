(** StandardMatch (paper §2.3 / Fig. 5 line 4) and ScoreMatch (line 10).

    [build] scores every (source attribute, target attribute) pair with
    every applicable matcher, records per-(source attribute, matcher)
    raw-score distributions, and combines normalised confidences.

    [score_view] re-evaluates one accepted match with the source column
    restricted to a view's rows, converting the new raw scores with the
    *base table's* score distributions so that view confidences are
    comparable with base confidences (§3, strawman discussion). *)

open Relational

type model

type prepared_target
(** Immutable target-side artefact of {!build}: warmed target columns,
    their (table, attr) index, the target profile cache and the frozen
    scoring kernel.  Prepared once (registration in the serve daemon,
    or inline by {!build} itself), then shared read-only across any
    number of builds — a build consuming a prepared target is
    bit-identical to one preparing the same target inline. *)

val prepare_target :
  ?store:Store.t ->
  ?kernel:bool ->
  ?fail_fast:bool ->
  target:Database.t ->
  unit ->
  prepared_target
(** Warm every target column, freeze the scoring kernel over the
    textual ones ([kernel] defaults to true), and capture the result as
    a shareable artefact.  With a [store], target artefacts are served
    from / written through to it.  A target column whose warm-up raises
    is quarantined into {!prepared_issues} — unless [fail_fast] (default
    false), which re-raises instead (the legacy no-report contract of
    {!build}). *)

type column_patch = {
  cp_attr : string;
  cp_profile : Textsim.Profile.t option;
  cp_distinct : string list option;
  cp_words : string list option;
}
(** Delta-maintained replacement artefacts for one attribute of a
    patched table; [None] fields are recomputed on warm (numeric
    summaries — the recompute runs the cold path's exact fold). *)

val patch_prepared :
  ?store:Store.t ->
  prepared_target ->
  table:Table.t ->
  ?digest:string ->
  patches:column_patch list ->
  unit ->
  prepared_target option
(** Rebuild a prepared target around one replaced [table] in O(delta):
    the scoring kernel's touched postings are patched in place
    ({!Score_kernel.patch}), the maintained artefacts in [patches] are
    seeded into a fresh target cache under the keys the new columns
    read (and written through to the store, registered under [digest]
    — computed from the rows when omitted), and columns of unchanged
    tables are reused verbatim.  Column order and the original warm
    quarantine ({!prepared_issues}) are preserved, so a build over the
    patched artefact is bit-identical to one over a cold
    {!prepare_target} of the same database.  [None] when the new rows
    hold grams outside the frozen kernel dictionary — the caller must
    prepare cold.  The input artefact is never mutated. *)

val prepared_target_db : prepared_target -> Database.t
val prepared_columns : prepared_target -> int
(** Surviving (warmed) target columns. *)

val prepared_kernel : prepared_target -> bool
(** Whether a scoring kernel was frozen (kernel enabled and at least
    one textual target column). *)

val prepared_issues : prepared_target -> Robust.Error.t list
(** Target columns quarantined while warming, in column order; replayed
    into the report of every build that consumes this artefact. *)

val build :
  ?gated:bool ->
  ?matchers:Matcher.t list ->
  ?jobs:int ->
  ?report:Robust.Report.t ->
  ?deadline:Robust.Deadline.t ->
  ?store:Store.t ->
  ?kernel:bool ->
  ?prepared:prepared_target ->
  ?candidate_filter:int * float ->
  source:Database.t ->
  target:Database.t ->
  unit ->
  model
(** Default matchers: {!Matchers.default_suite}.  [gated] (default true)
    selects {!Normalize.gated_confidence} over plain z-score confidence;
    the ablation bench measures the difference.

    [jobs] (default 1) fans the per-(source attribute) scoring out over
    a {!Runtime.Pool} of that many domains.  The fan-out is
    deterministic: results are merged in attribute order and the model
    is bit-identical to the sequential build's.

    Failure containment: with a [report], a fan-out unit that raises (a
    matcher choking on a pathological column, an injected fault, the
    [deadline] expiring) quarantines only its source attribute — the
    attribute contributes no scores, a [build]-stage issue is recorded,
    and the rest of the model is unaffected.  Without a [report] the
    first failure re-raises (legacy fail-fast).  Each unit also passes
    the {!Robust.Fault.Matcher_score} site keyed ["table.attr"].

    With a [store], every column artefact lookup (source, target and
    view columns alike) falls back from the in-memory caches to the
    persistent store before computing, and computed artefacts are
    written through — a later [build] over unchanged inputs starts
    warm ({!profile_builds} stays 0).  The caller owns the store's
    lifecycle ({!Store.flush}).

    [kernel] (default true) freezes a {!Score_kernel} over the textual
    target columns after the warm-up — the q-gram matcher is then
    batch-scored through its inverted index during the fan-out and view
    profiles are composed from per-partition profiles
    ({!Profile_cache.set_partitioning}) instead of re-scanning rows.
    Every score either way is bit-identical: the kernel accumulates the
    same dot terms in the same order as the string merge join, and
    partition counts add exactly.  [kernel:false] selects the legacy
    string path (the kernel bench's baseline).

    With [prepared], the target-side work (warming, kernel freeze,
    store registration of target tables) is skipped entirely and the
    shared artefact is consumed instead — [target] should be
    {!prepared_target_db}.  The resulting model, report and matches are
    bit-identical to an inline build over the same target; only the
    cost moves (to registration time, once).  [kernel:false] ignores a
    prepared kernel for this build without affecting any score.

    [candidate_filter] [(k, tau)] retrieves the top-[k] target columns
    by q-gram cosine ([>= tau]) per textual source attribute and
    restricts the {!Matchers.filterable} matchers' textual pairs to
    those survivors (filtered-out pairs keep a 0 in the normalisation
    distribution but contribute no confidence, exactly like
    inapplicable pairs).  Omitted, every pair is scored.  Filtered
    results are invariant under the [kernel] switch, and with a
    full-width [k] and [tau = 0] they equal the unfiltered model's
    exactly.  Raises [Invalid_argument] unless [k >= 1] and [tau] is
    in [0,1]. *)

val source : model -> Database.t
val target : model -> Database.t

val profile_cache : model -> Profile_cache.t
(** The cache threaded through every view column this model scores. *)

val kernel_enabled : model -> bool
(** Whether the model holds a frozen {!Score_kernel} (built with
    [kernel:true] and at least one textual target column). *)

val pairs_scored : model -> int
(** (matcher, source attribute, target column) scoring events actually
    performed; jobs-invariant. *)

val pairs_pruned : model -> int
(** Scoring events skipped by the candidate filter (0 without one);
    jobs-invariant. *)

val top_qgram_matches :
  model -> src_table:string -> src_attr:string -> k:int -> tau:float ->
  ((string * string) * float) list
(** Up to [k] target columns by raw q-gram cosine against the source
    column, best first, cosine >= [tau] only.  With a kernel the
    candidates are pruned through the inverted index (targets sharing no
    gram are skipped as provable zeros); without one every textual
    target is scored pairwise.  Both paths return identical results —
    pruning decides what {e not} to score, never a score's value.  [[]]
    for unknown or non-textual source attributes. *)

val cache_stats : model -> int * int
(** [(hits, misses)] of {!profile_cache} so far. *)

val profile_builds : model -> int
(** Column artefacts computed from raw values so far, summed over the
    source/view cache and the target-column cache: lookups that missed
    both the in-memory caches and the persistent store (if any).  Zero
    when a warm store answered everything. *)

val confidence : model -> src_table:string -> src_attr:string -> tgt_table:string ->
  tgt_attr:string -> float
(** Combined confidence of a base-table pair; 0.0 when no matcher was
    applicable. *)

val matches : model -> tau:float -> Schema_match.t list
(** All standard matches with confidence >= tau, sorted by decreasing
    confidence.  This is StandardMatch(R_S, R_T, tau) for every source
    table at once. *)

val matches_from : model -> src_table:string -> tau:float -> Schema_match.t list
(** Standard matches originating from one source table. *)

val score_view :
  model -> View.t -> src_attr:string -> tgt_table:string -> tgt_attr:string -> float
(** Confidence of (view.src_attr -> tgt) under the view's restriction.
    Returns 0.0 for an empty view (no evidence). *)

val view_matches :
  model -> View.t -> base_matches:Schema_match.t list -> Schema_match.t list
(** ScoreMatch for every base match whose source is the view's base
    table (Fig. 5 lines 8–11): each match is re-scored under the view
    and annotated with the view's condition. *)

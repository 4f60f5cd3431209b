(** The concrete matcher suite.

    Mirrors the architecture of §2.3 / LSD / COMA-style systems: several
    weak signals (schema names, instance 3-grams, word overlap, numeric
    distributions, value overlap, type compatibility), combined after
    per-matcher confidence normalisation. *)

val name_matcher : Matcher.t
(** Attribute-name similarity (Jaro-Winkler + token overlap).  Applies
    to every pair. *)

val qgram_matcher : Matcher.t
(** Cosine of 3-gram frequency profiles of the instance values.  Textual
    pairs only. *)

val word_matcher : Matcher.t
(** Jaccard of the word sets occurring in the instances.  Textual pairs
    only. *)

val numeric_matcher : Matcher.t
(** Bhattacharyya coefficient of normals fitted to the two columns.
    Numeric pairs only. *)

val range_matcher : Matcher.t
(** Mutual containment of observed value ranges.  Complements the
    Bhattacharyya matcher for mixture-vs-slice situations (attribute
    normalization). Numeric pairs only. *)

val value_overlap_matcher : Matcher.t
(** Jaccard of distinct display values; strong for categorical columns
    and foreign-key-like columns.  Any pair of equal type kind. *)

val type_matcher : Matcher.t
(** 1.0 for identical declared types, 0.5 for both-numeric, else 0.
    Low weight; breaks ties. *)

val default_suite : Matcher.t list
(** All of the above, paper-style weighting (instance signals dominate;
    names help; type is a weak prior). *)

val instance_only_suite : Matcher.t list
(** Instance-based matchers only (no name matcher) — used to check that
    contextual matching does not ride on attribute names. *)

val filterable : Matcher.t -> bool
(** Whether a candidate filter may restrict this matcher's
    textual-textual pairs: true for [qgram], [word] and
    [value-overlap], by name; false for every other matcher,
    user-defined ones included. *)

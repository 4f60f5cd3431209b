(** Multinomial naive Bayes over token-id documents.

    Used with 3-gram tokens for textual attributes (paper §3.2.3: "If h
    is a text attribute, a standard Naive Bayesian classifier is used,
    with the values tokenized into 3-grams").  Laplace-smoothed,
    computed in log space.

    Tokens are dense integer ids (a {!Textsim.Gram_dict} interns the
    grams), and a document is its ids in token order.  Counts live in
    one int array per label, and each label's log term
    [log ((n + alpha) / denom)] is computed once per distinct count n.
    The log-likelihood folds those terms in token order, so a posterior
    is the same float a string-keyed classifier computes over the same
    tokens. *)

type t

val create : ?alpha:float -> ids:int -> unit -> t
(** A classifier whose training ids lie in [\[0, ids)].  [alpha] is
    the Laplace smoothing constant (default 1.0). *)

val train : t -> label:string -> int array -> unit
(** Add one training document under [label].  Raises
    [Invalid_argument] on an id outside [\[0, ids)]. *)

val labels : t -> string list
(** Labels seen so far, sorted. *)

val document_count : t -> int

val log_posteriors : t -> int array -> (string * float) list
(** Unnormalised log posterior per label, best first.  Any id never
    seen in training (including ids outside [\[0, ids)]) counts zero
    occurrences under every label; the vocabulary size is the number of
    distinct ids seen in training.  Empty when the classifier has seen
    no data. *)

val classify : t -> int array -> string option
(** Most probable label; ties broken in favour of the more frequent
    label, then lexicographically.  [None] before any training. *)

val classify_with_margin : t -> int array -> (string * float) option
(** Best label and the log-posterior gap to the runner-up (infinite when
    there is a single label). *)

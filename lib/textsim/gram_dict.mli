(** Immutable q-gram interner: a dense bijection between a fixed gram
    vocabulary and [0 .. size - 1].

    Ids are assigned in [String.compare] order of the grams, so {e id
    order is gram-lexicographic order}: a merge join over two id-sorted
    count arrays visits shared grams in exactly the order the string
    path's gram-sorted merge join does, which is what keeps interned
    similarity scores bit-identical to string-path scores (the float
    accumulation order is the same).

    The dictionary is frozen at construction — there is no [add].  This
    is the "freeze after build" interner lifecycle: {!Gram_index.build}
    collects every target gram, builds the dictionary once on the main
    domain, and worker domains afterwards only call {!find}/{!gram},
    which never mutate, so sharing a dictionary across a
    [Runtime.Pool] fan-out needs no locking.  Grams outside the
    vocabulary simply have no id; callers fall back to the string path
    (or skip them, for dot products against in-vocabulary profiles,
    where out-of-vocabulary grams cannot contribute). *)

type t

val of_grams : string list -> t
(** Build a frozen dictionary of the distinct grams (duplicates are
    fine); ids follow [String.compare] order. *)

val intern : ('a -> string list) -> 'a array -> t * int array array
(** [intern grams items] builds the dictionary of the grams of every
    item and returns each item's ids, in token order.  [grams] is called
    once per item, and each gram occurrence is hashed once. *)

val find : t -> string -> int option
val mem : t -> string -> bool

val encode : t -> string list -> int array
(** The ids of a gram sequence, in order; a gram outside the dictionary
    maps to [-1]. *)

val gram : t -> int -> string
(** Inverse of {!find}; raises [Invalid_argument] out of range. *)

val size : t -> int

val translate : t -> into:t -> int array
(** [translate t ~into] maps each id of [t] to the id of the same gram
    in [into], or [-1] when [into] lacks the gram.  Because both
    dictionaries assign ids in gram-lexicographic order, the map is
    strictly increasing on the shared grams, so pushing an id-sorted
    count array through it preserves sortedness — an interned profile
    can be re-interned against another frozen dictionary with one int
    pass instead of a string pass.  The map is memoised on [t] (keyed
    by the physical [into]); concurrent same-pair calls may recompute
    the identical array, which is benign. *)

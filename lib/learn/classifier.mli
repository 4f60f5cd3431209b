(** A unified single-label classifier over mixed features.

    ClusteredViewGen trains "a classification function C_h" on attribute
    values; depending on the attribute's type this is naive Bayes on
    3-grams or a Gaussian classifier (paper §3.2.3).  This module hides
    the dispatch so the view-generation algorithm is type-agnostic.

    A classifier works on one encoded {!column}: the attribute's values
    are tokenised once, and every classifier trained on the column
    refers to rows by index. *)

type feature =
  | Text of string
  | Number of float
  | Missing

type column
(** One attribute's features with each distinct text value cut into
    q-grams once.  The column's grams are interned in a
    {!Textsim.Gram_dict} that belongs to the column alone and is freed
    with it. *)

val column : ?q:int -> feature array -> column
(** Encode the features of a column's rows; [q] is the gram size for
    text (default 3). *)

val tokens_encoded : column -> int
(** Grams cut while encoding: the total over the distinct text values. *)

type t

val create : ?alpha:float -> column -> t
(** Fresh classifier over the rows of a column; [alpha] is the naive
    Bayes smoothing. *)

val train : t -> label:string -> int -> unit
(** Train on the row with the given index.  [Missing] features are
    ignored. *)

val trained : t -> bool
(** True once at least one (non-missing) example has been seen. *)

val labels : t -> string list

val classify : t -> int -> string option
(** Predicted label of a row.  Numbers may have been seen as text and
    vice versa; each sub-classifier answers only for its own feature
    kind, and when that kind saw no training data the other is consulted
    on a textual rendering. [Missing] yields [None]. *)

(** SrcClassInfer (paper §3.2.3): the classifier C_h is trained directly
    on the source values of h — naive Bayes over 3-grams for text,
    a Gaussian class-conditional model for numbers.  Each h column is
    tokenised once per {!Clustered_view_gen.generate} call (counter
    [infer.tokens_encoded]). *)

val teacher : Clustered_view_gen.teacher
val infer : Infer.t

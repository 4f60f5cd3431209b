open Relational

let both_textual (a : Attribute.t) (b : Attribute.t) =
  Attribute.is_textual a && Attribute.is_textual b

let both_numeric (a : Attribute.t) (b : Attribute.t) =
  Attribute.is_numeric a && Attribute.is_numeric b

let always (_ : Attribute.t) (_ : Attribute.t) = true

let name_matcher =
  Matcher.make ~name:"name" ~weight:0.75 ~applicable:always (fun src tgt ->
      Textsim.Simmetrics.name_similarity (Column.name src) (Column.name tgt))

let qgram_matcher =
  Matcher.make ~name:"qgram" ~weight:1.5 ~kernel:Matcher.Qgram_cosine ~applicable:both_textual
    (fun src tgt -> Textsim.Profile.cosine (Column.profile src) (Column.profile tgt))

let word_matcher =
  Matcher.make ~name:"word" ~weight:1.0 ~applicable:both_textual (fun src tgt ->
      Textsim.Simmetrics.jaccard (Column.words src) (Column.words tgt))

(* Bhattacharyya coefficient of the two fitted normals: 1 when the
   distributions coincide, decaying with both mean separation and
   variance mismatch. *)
let numeric_matcher =
  Matcher.make ~name:"numeric" ~weight:1.5 ~applicable:both_numeric (fun src tgt ->
      let s1 = Column.summary src and s2 = Column.summary tgt in
      if s1.Stats.Descriptive.n = 0 || s2.Stats.Descriptive.n = 0 then 0.0
      else begin
        let spread =
          Float.max
            (Float.abs (s1.Stats.Descriptive.max -. s1.Stats.Descriptive.min))
            (Float.abs (s2.Stats.Descriptive.max -. s2.Stats.Descriptive.min))
        in
        let floor = Float.max 1e-9 (1e-3 *. Float.max spread 1.0) in
        let sig1 = Float.max s1.Stats.Descriptive.stddev floor in
        let sig2 = Float.max s2.Stats.Descriptive.stddev floor in
        let v1 = sig1 *. sig1 and v2 = sig2 *. sig2 in
        let dmu = s1.Stats.Descriptive.mean -. s2.Stats.Descriptive.mean in
        sqrt (2.0 *. sig1 *. sig2 /. (v1 +. v2))
        *. exp (-.(dmu *. dmu) /. (4.0 *. (v1 +. v2)))
      end)

(* Mutual range containment: the fraction of each column's values lying
   within the other's observed range, averaged.  Unlike the Bhattacharyya
   matcher it does not punish variance mismatch, which matters when a
   source column is a *mixture* whose per-context slices match narrow
   target columns (attribute normalization, §5.7). *)
let range_matcher =
  Matcher.make ~name:"range" ~weight:0.75 ~applicable:both_numeric (fun src tgt ->
      let s1 = Column.summary src and s2 = Column.summary tgt in
      if s1.Stats.Descriptive.n = 0 || s2.Stats.Descriptive.n = 0 then 0.0
      else begin
        let contained (s : Stats.Descriptive.summary) values =
          let slack = 0.02 *. Float.max 1.0 (s.Stats.Descriptive.max -. s.Stats.Descriptive.min) in
          let lo = s.Stats.Descriptive.min -. slack
          and hi = s.Stats.Descriptive.max +. slack in
          let inside = Array.fold_left (fun acc x -> if x >= lo && x <= hi then acc + 1 else acc) 0 values in
          float_of_int inside /. float_of_int (Array.length values)
        in
        0.5 *. (contained s2 (Column.floats src) +. contained s1 (Column.floats tgt))
      end)

let value_overlap_matcher =
  (* Exact-value overlap is meaningful for strings and integers;
     independently drawn floats almost never collide, so a float column
     would only drag the combination toward zero. *)
  let applicable (a : Attribute.t) (b : Attribute.t) =
    both_textual a b || (a.ty = Value.Tint && b.ty = Value.Tint)
  in
  Matcher.make ~name:"value-overlap" ~weight:1.0 ~applicable (fun src tgt ->
      Textsim.Simmetrics.jaccard (Column.distinct_strings src) (Column.distinct_strings tgt))

let type_matcher =
  Matcher.make ~name:"type" ~weight:0.25 ~applicable:always (fun src tgt ->
      let ta = (Column.attribute src).Attribute.ty and tb = (Column.attribute tgt).Attribute.ty in
      if ta = tb then 1.0
      else begin
        let numeric = function
          | Value.Tint | Value.Tfloat -> true
          | Value.Tstring | Value.Tbool -> false
        in
        if numeric ta && numeric tb then 0.5 else 0.0
      end)

let default_suite =
  [
    name_matcher;
    qgram_matcher;
    word_matcher;
    numeric_matcher;
    range_matcher;
    value_overlap_matcher;
    type_matcher;
  ]

let instance_only_suite =
  [ qgram_matcher; word_matcher; numeric_matcher; range_matcher; value_overlap_matcher; type_matcher ]

(* Matchers whose textual-textual pairs a candidate filter may
   restrict.  Every other matcher, a user-defined one included, scores
   every pair: the conservative choice for result preservation. *)
let filterable (m : Matcher.t) =
  match m.Matcher.name with "qgram" | "word" | "value-overlap" -> true | _ -> false

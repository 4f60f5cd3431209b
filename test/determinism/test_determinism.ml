(* Scoring-path determinism regressions. *)
open Relational

let mk_column ?(owner = "t") name ty values =
  Matching.Column.make ~owner (Attribute.make name ty) (Array.of_list values)

(* Exact tie at the top-k boundary: identical profiles in every slot.
   The cut must fall deterministically — score descending, then slot
   ascending — not wherever the heap happened to leave things. *)
let test_topk_exact_tie () =
  let p () = Textsim.Profile.of_strings [ "alpha beta" ] in
  let idx = Textsim.Gram_index.build [| p (); p (); p () |] in
  let cand = p () in
  let hits, _stats = Textsim.Gram_index.top_k idx cand ~k:2 ~tau:0.0 in
  (match hits with
  | [ (s0, c0); (s1, c1) ] ->
    Alcotest.(check int) "first slot" 0 s0;
    Alcotest.(check int) "second slot" 1 s1;
    Alcotest.(check bool) "scores tied" true (c0 = c1)
  | _ -> Alcotest.fail "expected exactly k hits");
  (* the same tie through the interned kernel: column id order *)
  let col name =
    ( ("t", name),
      Textsim.Profile.of_strings [ "alpha beta" ] )
  in
  let kern = Matching.Score_kernel.build [| col "a"; col "b"; col "c" |] in
  match Matching.Score_kernel.top_k kern cand ~k:2 ~tau:0.0 with
  | [ ((_, n0), _); ((_, n1), _) ] ->
    Alcotest.(check string) "kernel first" "a" n0;
    Alcotest.(check string) "kernel second" "b" n1
  | _ -> Alcotest.fail "kernel: expected exactly k hits"

(* A matcher whose raw score is NaN (or out of range) must never leak
   past Matcher.score: NaN poisons the z-normalised combination of
   every other matcher on the pair.  OCaml's Float.min/max propagate
   NaN, so the clamp alone is not enough — this is the regression. *)
let test_matcher_nan_containment () =
  let col = mk_column "x" Value.Tstring [ Value.String "a" ] in
  let fixed v =
    Matching.Matcher.make ~name:"fixed" ~applicable:(fun _ _ -> true) (fun _ _ -> v)
  in
  Alcotest.(check (float 0.0)) "nan -> 0" 0.0 (Matching.Matcher.score (fixed Float.nan) col col);
  Alcotest.(check (float 0.0)) "overflow clamps" 1.0 (Matching.Matcher.score (fixed 2.0) col col);
  Alcotest.(check (float 0.0)) "underflow clamps" 0.0 (Matching.Matcher.score (fixed (-3.0)) col col);
  Alcotest.(check (float 0.0)) "neg-infinity clamps" 0.0
    (Matching.Matcher.score (fixed Float.neg_infinity) col col);
  Alcotest.(check (float 0.0)) "infinity clamps" 1.0
    (Matching.Matcher.score (fixed Float.infinity) col col)

(* Empty-input edge cases across the string-similarity kernels: every
   guard must return a finite score in [0, 1], never divide by an
   empty length. *)
let test_simmetrics_empty_inputs () =
  let finite01 name v =
    Alcotest.(check bool) (name ^ " finite and in [0,1]") true
      ((not (Float.is_nan v)) && v >= 0.0 && v <= 1.0)
  in
  finite01 "jaro \"\" \"\"" (Textsim.Simmetrics.jaro "" "");
  finite01 "jaro a \"\"" (Textsim.Simmetrics.jaro "a" "");
  finite01 "jaro_winkler \"\" \"\"" (Textsim.Simmetrics.jaro_winkler "" "");
  finite01 "levenshtein_similarity \"\" \"\"" (Textsim.Simmetrics.levenshtein_similarity "" "");
  finite01 "jaccard [] []" (Textsim.Simmetrics.jaccard [] []);
  finite01 "dice [] []" (Textsim.Simmetrics.dice [] []);
  finite01 "overlap [] []" (Textsim.Simmetrics.overlap [] []);
  finite01 "overlap [] [a]" (Textsim.Simmetrics.overlap [] [ "a" ]);
  finite01 "cosine_bags [] []" (Textsim.Simmetrics.cosine_bags [] []);
  finite01 "name_similarity \"\" \"\"" (Textsim.Simmetrics.name_similarity "" "")

let () =
  Alcotest.run "determinism"
    [
      ( "determinism",
        [
          Alcotest.test_case "exact top-k boundary ties" `Quick test_topk_exact_tie;
          Alcotest.test_case "NaN containment in Matcher.score" `Quick
            test_matcher_nan_containment;
          Alcotest.test_case "Simmetrics empty inputs" `Quick test_simmetrics_empty_inputs;
        ] );
    ]

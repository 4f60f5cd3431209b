(* Naive Bayes, Gaussian classifier, unified classifier, evaluation. *)

let trigrams = Textsim.Tokenize.trigrams

(* Documents are gram-id arrays; [interned docs] interns every gram of
   [docs] and returns the dictionary and the encoder. *)
let interned docs =
  let dict = Textsim.Gram_dict.of_grams (List.concat docs) in
  (Textsim.Gram_dict.size dict, Textsim.Gram_dict.encode dict)

let test_nb_untrained () =
  let nb = Learn.Naive_bayes.create ~ids:1 () in
  Alcotest.(check bool) "none before training" true (Learn.Naive_bayes.classify nb [| 0 |] = None);
  Alcotest.(check (list string)) "no labels" [] (Learn.Naive_bayes.labels nb)

let test_nb_separable () =
  let books = [ "the secret history"; "a shadow of empire"; "the forgotten kingdom" ] in
  let music = [ "dance baby tonight"; "midnight groove"; "funky rhythm fever" ] in
  let queries = [ "the secret kingdom"; "funky dance groove" ] in
  let ids, encode = interned (List.map trigrams (books @ music @ queries)) in
  let nb = Learn.Naive_bayes.create ~ids () in
  List.iter (fun d -> Learn.Naive_bayes.train nb ~label:"book" (encode (trigrams d))) books;
  List.iter (fun d -> Learn.Naive_bayes.train nb ~label:"music" (encode (trigrams d))) music;
  Alcotest.(check (option string)) "bookish" (Some "book")
    (Learn.Naive_bayes.classify nb (encode (trigrams "the secret kingdom")));
  Alcotest.(check (option string)) "musicish" (Some "music")
    (Learn.Naive_bayes.classify nb (encode (trigrams "funky dance groove")))

let test_nb_prior_dominates_on_empty_features () =
  let nb = Learn.Naive_bayes.create ~ids:2 () in
  for _ = 1 to 9 do Learn.Naive_bayes.train nb ~label:"common" [| 0 |] done;
  Learn.Naive_bayes.train nb ~label:"rare" [| 1 |];
  Alcotest.(check (option string)) "prior wins with no evidence" (Some "common")
    (Learn.Naive_bayes.classify nb [||])

let test_nb_margin () =
  let nb = Learn.Naive_bayes.create ~ids:1 () in
  Learn.Naive_bayes.train nb ~label:"only" [| 0 |];
  match Learn.Naive_bayes.classify_with_margin nb [| 0 |] with
  | Some (l, m) ->
    Alcotest.(check string) "label" "only" l;
    Alcotest.(check bool) "infinite margin" true (m = Float.infinity)
  | None -> Alcotest.fail "expected a label"

let test_nb_deterministic_ties () =
  let nb = Learn.Naive_bayes.create ~ids:1 () in
  Learn.Naive_bayes.train nb ~label:"b" [| 0 |];
  Learn.Naive_bayes.train nb ~label:"a" [| 0 |];
  (* same likelihoods, same priors: lexicographic tie-break *)
  Alcotest.(check (option string)) "tie to lexicographic" (Some "a")
    (Learn.Naive_bayes.classify nb [| 0 |])

let test_gnb_separable () =
  let g = Learn.Gaussian_nb.create () in
  let rng = Stats.Rng.create 9 in
  for _ = 1 to 200 do
    Learn.Gaussian_nb.train g ~label:"low" (Stats.Rng.gaussian rng ~mu:10.0 ~sigma:2.0);
    Learn.Gaussian_nb.train g ~label:"high" (Stats.Rng.gaussian rng ~mu:30.0 ~sigma:2.0)
  done;
  Alcotest.(check (option string)) "low" (Some "low") (Learn.Gaussian_nb.classify g 11.0);
  Alcotest.(check (option string)) "high" (Some "high") (Learn.Gaussian_nb.classify g 29.0);
  Alcotest.(check (option string)) "clearly low side" (Some "low")
    (Learn.Gaussian_nb.classify g 15.0)

let test_gnb_class_stats () =
  let g = Learn.Gaussian_nb.create () in
  List.iter (Learn.Gaussian_nb.train g ~label:"x") [ 1.0; 2.0; 3.0 ];
  match Learn.Gaussian_nb.class_stats g "x" with
  | Some (n, mean, _) ->
    Alcotest.(check int) "n" 3 n;
    Alcotest.(check (float 1e-9)) "mean" 2.0 mean
  | None -> Alcotest.fail "expected stats"

let test_gnb_degenerate_sigma () =
  let g = Learn.Gaussian_nb.create () in
  for _ = 1 to 5 do Learn.Gaussian_nb.train g ~label:"const" 7.0 done;
  for _ = 1 to 5 do Learn.Gaussian_nb.train g ~label:"other" 100.0 done;
  (* constant class must still classify its own value *)
  Alcotest.(check (option string)) "spike class" (Some "const") (Learn.Gaussian_nb.classify g 7.0)

let test_gnb_untrained () =
  let g = Learn.Gaussian_nb.create () in
  Alcotest.(check bool) "none" true (Learn.Gaussian_nb.classify g 1.0 = None)

let test_classifier_dispatch () =
  let column =
    Learn.Classifier.(
      column [| Text "hello world"; Number 5.0; Text "hello"; Number 5.1; Missing |])
  in
  let c = Learn.Classifier.create column in
  Learn.Classifier.train c ~label:"text" 0;
  Learn.Classifier.train c ~label:"num" 1;
  Alcotest.(check bool) "trained" true (Learn.Classifier.trained c);
  Alcotest.(check (option string)) "text goes to nb" (Some "text") (Learn.Classifier.classify c 2);
  Alcotest.(check (option string)) "number goes to gaussian" (Some "num")
    (Learn.Classifier.classify c 3);
  Alcotest.(check bool) "missing is none" true (Learn.Classifier.classify c 4 = None)

let test_classifier_missing_ignored_in_training () =
  let c = Learn.Classifier.create (Learn.Classifier.column [| Learn.Classifier.Missing |]) in
  Learn.Classifier.train c ~label:"x" 0;
  Alcotest.(check bool) "still untrained" false (Learn.Classifier.trained c)

let test_classifier_numeric_text_fallback () =
  (* trained only on numbers; a numeric string should be read as one *)
  let column =
    Learn.Classifier.(column [| Number 1.0; Number 100.0; Text "99"; Text "abc" |])
  in
  let c = Learn.Classifier.create column in
  Learn.Classifier.train c ~label:"low" 0;
  Learn.Classifier.train c ~label:"high" 1;
  Alcotest.(check (option string)) "parsed" (Some "high") (Learn.Classifier.classify c 2);
  Alcotest.(check bool) "unparsable none" true (Learn.Classifier.classify c 3 = None)

let test_classifier_number_text_fallback () =
  (* trained only on text; a number is classified on the grams of its
     rendering, which may include grams the column never held as text *)
  let column = Learn.Classifier.(column [| Text "12 apples"; Text "pears"; Number 12.0; Number 7.5 |]) in
  let c = Learn.Classifier.create column in
  Learn.Classifier.train c ~label:"apple" 0;
  Learn.Classifier.train c ~label:"pear" 1;
  Alcotest.(check (option string)) "shared grams" (Some "apple") (Learn.Classifier.classify c 2);
  Alcotest.(check bool) "unseen grams still classified" true (Learn.Classifier.classify c 3 <> None)

let test_majority_prior () =
  Alcotest.(check (float 1e-9)) "prior" 0.6
    (Learn.Evaluation.majority_prior [| "a"; "a"; "a"; "b"; "c" |]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Learn.Evaluation.majority_prior [||])

let test_evaluation_significant () =
  (* a perfect classifier on a balanced 2-label problem is significant *)
  let items = Array.init 60 (fun i -> if i mod 2 = 0 then ("x", "x") else ("y", "y")) in
  let outcome =
    Learn.Evaluation.test
      ~classify:(fun (f, _) -> Some f)
      ~label_of:snd ~majority_prior:0.5 items
  in
  Alcotest.(check bool) "significant" true outcome.Learn.Evaluation.significant;
  Alcotest.(check (float 1e-9)) "quality 1" 1.0 outcome.Learn.Evaluation.quality

let test_evaluation_insignificant_random () =
  (* predicting the majority label performs exactly as the null *)
  let items = Array.init 60 (fun i -> (i, if i mod 2 = 0 then "x" else "y")) in
  let outcome =
    Learn.Evaluation.test ~classify:(fun _ -> Some "x") ~label_of:snd ~majority_prior:0.5 items
  in
  Alcotest.(check bool) "not significant" false outcome.Learn.Evaluation.significant

let test_evaluation_abstention_counts_as_error () =
  let items = [| ((), "x") |] in
  let outcome =
    Learn.Evaluation.test ~classify:(fun _ -> None) ~label_of:snd ~majority_prior:0.9 items
  in
  Alcotest.(check (float 1e-9)) "zero quality" 0.0 outcome.Learn.Evaluation.quality

let qcheck_gnb_picks_closer_mean =
  QCheck.Test.make ~name:"gaussian picks the closer of two far classes" ~count:100
    (QCheck.float_range 0.0 10.0)
    (fun x ->
      let g = Learn.Gaussian_nb.create () in
      let rng = Stats.Rng.create 3 in
      for _ = 1 to 100 do
        Learn.Gaussian_nb.train g ~label:"near0" (Stats.Rng.gaussian rng ~mu:0.0 ~sigma:1.0);
        Learn.Gaussian_nb.train g ~label:"near100" (Stats.Rng.gaussian rng ~mu:100.0 ~sigma:1.0)
      done;
      Learn.Gaussian_nb.classify g x = Some "near0")

let suite =
  [
    Alcotest.test_case "nb untrained" `Quick test_nb_untrained;
    Alcotest.test_case "nb separable vocab" `Quick test_nb_separable;
    Alcotest.test_case "nb prior on no evidence" `Quick test_nb_prior_dominates_on_empty_features;
    Alcotest.test_case "nb margin" `Quick test_nb_margin;
    Alcotest.test_case "nb deterministic ties" `Quick test_nb_deterministic_ties;
    Alcotest.test_case "gaussian separable" `Quick test_gnb_separable;
    Alcotest.test_case "gaussian class stats" `Quick test_gnb_class_stats;
    Alcotest.test_case "gaussian degenerate sigma" `Quick test_gnb_degenerate_sigma;
    Alcotest.test_case "gaussian untrained" `Quick test_gnb_untrained;
    Alcotest.test_case "classifier dispatch" `Quick test_classifier_dispatch;
    Alcotest.test_case "classifier ignores missing" `Quick test_classifier_missing_ignored_in_training;
    Alcotest.test_case "classifier numeric-text fallback" `Quick test_classifier_numeric_text_fallback;
    Alcotest.test_case "classifier number-text fallback" `Quick test_classifier_number_text_fallback;
    Alcotest.test_case "majority prior" `Quick test_majority_prior;
    Alcotest.test_case "evaluation significant" `Quick test_evaluation_significant;
    Alcotest.test_case "evaluation insignificant" `Quick test_evaluation_insignificant_random;
    Alcotest.test_case "evaluation abstention" `Quick test_evaluation_abstention_counts_as_error;
    QCheck_alcotest.to_alcotest qcheck_gnb_picks_closer_mean;
  ]

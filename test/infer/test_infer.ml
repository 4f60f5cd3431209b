(* Bit-identity of the interned naive Bayes classifier.

   - Learn.Naive_bayes (gram ids, int counts, memoised log terms) gives
     the same log posteriors, bit for bit and in the same order, as the
     string-keyed Nb_oracle on the same documents.
   - ClusteredViewGen.generate with the shipped SrcClassInfer and
     TgtClassInfer teachers yields the same families (attribute, view
     names, quality to the bit) as with teachers built on the oracle. *)

open Relational

(* --- Naive_bayes against the oracle ----------------------------------- *)

(* Training ids lie in [0, ids); queries may also hold ids at or above
   [ids], which are test-only tokens. *)
let ids = 8
let token id = "t" ^ string_of_int id

type case = {
  alpha : float;
  training : (string * int list) list;
  twins : bool;  (** also train every document under label ^ "'" *)
  query : int list;
}

let train_both nb oracle case =
  List.iter
    (fun (label, doc) ->
      let labels = if case.twins then [ label; label ^ "'" ] else [ label ] in
      List.iter
        (fun label ->
          Learn.Naive_bayes.train nb ~label (Array.of_list doc);
          Nb_oracle.train oracle ~label (List.map token doc))
        labels)
    case.training

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_posteriors ours theirs =
  List.length ours = List.length theirs
  && List.for_all2 (fun (l1, s1) (l2, s2) -> String.equal l1 l2 && same_bits s1 s2) ours theirs

(* The id-keyed and string-keyed classifiers agree on the posteriors,
   the label and the margin. *)
let agree case =
  let nb = Learn.Naive_bayes.create ~alpha:case.alpha ~ids () in
  let oracle = Nb_oracle.create ~alpha:case.alpha () in
  train_both nb oracle case;
  let query = Array.of_list case.query and tokens = List.map token case.query in
  same_posteriors (Learn.Naive_bayes.log_posteriors nb query) (Nb_oracle.log_posteriors oracle tokens)
  && Learn.Naive_bayes.classify nb query = Nb_oracle.classify oracle tokens
  && (match
        (Learn.Naive_bayes.classify_with_margin nb query, Nb_oracle.classify_with_margin oracle tokens)
      with
     | Some (l1, m1), Some (l2, m2) -> String.equal l1 l2 && same_bits m1 m2
     | None, None -> true
     | Some _, None | None, Some _ -> false)
  && Learn.Naive_bayes.labels nb = Nb_oracle.labels oracle
  && Learn.Naive_bayes.document_count nb = Nb_oracle.document_count oracle

let print_case c =
  Printf.sprintf "alpha=%h twins=%b train=[%s] query=[%s]" c.alpha c.twins
    (String.concat "; "
       (List.map
          (fun (l, d) -> l ^ ":" ^ String.concat "," (List.map string_of_int d))
          c.training))
    (String.concat "," (List.map string_of_int c.query))

let gen_case =
  QCheck.Gen.(
    let* labels = int_range 1 4 in
    let* alpha = oneofl [ 1.0; 0.5; 0.01 ] in
    let* twins = bool in
    let label = map (fun i -> String.make 1 (Char.chr (Char.code 'a' + i))) (int_bound (labels - 1)) in
    (* small id ranges make repeated tokens and count collisions common *)
    let* training = list_size (int_range 0 20) (pair label (list_size (int_bound 10) (int_bound (ids - 1)))) in
    let* query = list_size (int_bound 12) (int_bound (ids + 3)) in
    return { alpha; training; twins; query })

let prop_posteriors_bit_identical =
  QCheck.Test.make ~count:2000 ~name:"log_posteriors bit-identical to oracle"
    (QCheck.make ~print:print_case gen_case)
    agree

let check name case = Alcotest.(check bool) name true (agree case)
let base = { alpha = 1.0; training = []; twins = false; query = [] }

let test_edges () =
  let training = [ ("a", [ 0; 1; 1; 2 ]); ("b", [ 2; 3 ]); ("a", [ 0 ]); ("c", []) ] in
  check "untrained" { base with query = [ 0; 1 ] };
  check "empty document" { base with training; query = [] };
  check "empty training documents" { base with training = [ ("a", []); ("b", []) ]; query = [ 1 ] };
  check "test-only tokens" { base with training; query = [ 5; 6; 9; 11 ] };
  check "repeated tokens" { base with training; query = [ 1; 1; 1; 2; 1; 0; 0 ] };
  check "single label" { base with training = [ ("a", [ 0; 1 ]); ("a", [ 1 ]) ]; query = [ 1; 4 ] };
  check "equal-score, equal-docs ties"
    { base with training = [ ("b", [ 0 ]); ("a", [ 0 ]) ]; query = [ 0 ] };
  check "twin labels tie" { base with training; twins = true; query = [ 0; 3; 7 ] };
  check "small alpha" { base with alpha = 0.01; training; query = [ 0; 2; 7 ] }

let test_memo_refreshed_by_training () =
  (* classifying between training rounds must not reuse stale log terms *)
  let nb = Learn.Naive_bayes.create ~ids () and oracle = Nb_oracle.create () in
  let step (label, doc) query =
    Learn.Naive_bayes.train nb ~label (Array.of_list doc);
    Nb_oracle.train oracle ~label (List.map token doc);
    Alcotest.(check bool) "posteriors" true
      (same_posteriors
         (Learn.Naive_bayes.log_posteriors nb (Array.of_list query))
         (Nb_oracle.log_posteriors oracle (List.map token query)))
  in
  step ("a", [ 0; 1 ]) [ 0; 1; 2 ];
  step ("b", [ 2; 2 ]) [ 0; 1; 2 ];
  step ("a", [ 2; 5 ]) [ 2; 5; 5 ];
  step ("c", [ 7 ]) [ 7; 0 ]

(* Gram_dict.intern: the dictionary of_grams builds over the same grams,
   and every document's ids in token order. *)
let prop_intern =
  QCheck.Test.make ~count:500 ~name:"Gram_dict.intern = of_grams + find"
    QCheck.(
      array_of_size Gen.(int_bound 20)
        (list_of_size Gen.(int_bound 12)
           (string_gen_of_size Gen.(int_range 1 3) Gen.(oneofl [ 'a'; 'b'; 'c' ]))))
    (fun docs ->
      let dict, ids = Textsim.Gram_dict.intern Fun.id docs in
      let expected = Textsim.Gram_dict.of_grams (List.concat (Array.to_list docs)) in
      Textsim.Gram_dict.size dict = Textsim.Gram_dict.size expected
      && Array.for_all2
           (fun doc ids -> Textsim.Gram_dict.encode expected doc = ids)
           docs ids)

(* --- generate with shipped teachers against oracle teachers ---------- *)

let digest families =
  String.concat "\n"
    (List.map
       (fun (f : View.family) ->
         Printf.sprintf "%s|%s|%h" f.View.attribute
           (String.concat ";" (List.map View.name f.View.views))
           f.View.quality)
       families)

let params seed = { Workload.Retail.default_params with rows = 200; target_rows = 100; seed }
let seeds = [ 1; 2; 3 ]

let source seed =
  Database.table (Workload.Retail.source (params seed)) Workload.Retail.source_table_name

let configs seed =
  let c = Ctxmatch.Config.with_seed Ctxmatch.Config.default seed in
  [ ("early", Ctxmatch.Config.early c); ("late", Ctxmatch.Config.late c) ]

let same_families ~what ~shipped ~oracle table config seed =
  let run teacher =
    digest (Ctxmatch.Clustered_view_gen.generate (Stats.Rng.create seed) config teacher table)
  in
  let expected = run oracle in
  Alcotest.(check string) what expected (run shipped);
  expected <> ""

(* SrcClassInfer does not read the target, so its matrix is seeds x
   EarlyDisjuncts; TgtClassInfer also ranges over the target styles. *)
let test_src_generate () =
  let nonempty = ref 0 in
  List.iter
    (fun seed ->
      let table = source seed in
      List.iter
        (fun (mode, config) ->
          if
            same_families ~what:(Printf.sprintf "src seed %d %s" seed mode)
              ~shipped:Ctxmatch.Src_class_infer.teacher ~oracle:Oracle_teachers.src_teacher table
              config seed
          then incr nonempty)
        (configs seed))
    seeds;
  Alcotest.(check bool) "families found" true (!nonempty > 0)

let test_tgt_generate () =
  let nonempty = ref 0 in
  List.iter
    (fun seed ->
      let table = source seed in
      List.iter
        (fun style ->
          let target = Workload.Retail.target (params seed) style in
          let shipped = Ctxmatch.Tgt_class_infer.teacher target in
          let oracle = Oracle_teachers.tgt_teacher target in
          List.iter
            (fun (mode, config) ->
              if
                same_families
                  ~what:
                    (Printf.sprintf "tgt seed %d %s %s" seed (Workload.Retail.style_name style) mode)
                  ~shipped ~oracle table config seed
              then incr nonempty)
            (configs seed))
        Workload.Retail.all_styles)
    seeds;
  Alcotest.(check bool) "families found" true (!nonempty > 0)

let test_tagger () =
  (* every distinct source value gets the oracle tagger's tag *)
  let seed = 2 in
  let target = Workload.Retail.target (params seed) Workload.Retail.Aaron_day in
  let tagger = Ctxmatch.Tgt_class_infer.make_tagger target in
  let oracle = Oracle_teachers.make_tagger target in
  let table = source seed in
  List.iter
    (fun h ->
      let feature = Ctxmatch.Clustered_view_gen.feature_of table ~h in
      Array.iter
        (fun row ->
          let f = feature row in
          Alcotest.(check (option string)) h (Oracle_teachers.tag oracle f)
            (Ctxmatch.Tgt_class_infer.tag tagger f))
        (Table.rows table))
    (Schema.attribute_names (Table.schema table))

let () =
  Alcotest.run "infer"
    [
      ( "infer",
        [
          QCheck_alcotest.to_alcotest prop_posteriors_bit_identical;
          QCheck_alcotest.to_alcotest prop_intern;
          Alcotest.test_case "edge cases match the oracle" `Quick test_edges;
          Alcotest.test_case "log terms refreshed by training" `Quick test_memo_refreshed_by_training;
          Alcotest.test_case "target tagger matches the oracle" `Quick test_tagger;
          Alcotest.test_case "src generate matches the oracle" `Slow test_src_generate;
          Alcotest.test_case "tgt generate matches the oracle" `Slow test_tgt_generate;
        ] );
    ]

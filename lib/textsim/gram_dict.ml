type t = {
  grams : string array;
  ids : (string, int) Hashtbl.t;
  (* dictionary-to-dictionary id translations, keyed by the *physical*
     target dictionary and attached lazily; racy same-value writes from
     worker domains are benign (every domain computes the identical map
     from the two frozen gram arrays, and a list-cons store is atomic —
     a lost entry merely recomputes) *)
  mutable xlat : (t * int array) list;
}

let of_grams grams =
  let sorted = List.sort_uniq String.compare grams in
  let grams = Array.of_list sorted in
  let ids = Hashtbl.create (max 16 (2 * Array.length grams)) in
  Array.iteri (fun i g -> Hashtbl.replace ids g i) grams;
  { grams; ids; xlat = [] }

(* Each distinct gram gets one cell, filled with its id once the
   dictionary is built, so no occurrence is looked up a second time.
   An item's gram list dies as soon as its cells are taken, so the
   bulk of the cutting is young garbage. *)
let intern grams items =
  let cells = Hashtbl.create 512 in
  let cell g =
    match Hashtbl.find_opt cells g with
    | Some c -> c
    | None ->
      let c = ref (-1) in
      Hashtbl.add cells g c;
      c
  in
  let docs = Array.map (fun item -> Array.of_list (List.map cell (grams item))) items in
  let t = of_grams (Hashtbl.fold (fun g _ acc -> g :: acc) cells []) in
  Hashtbl.iter (fun g c -> c := Hashtbl.find t.ids g) cells;
  (t, Array.map (Array.map ( ! )) docs)

let find t g = Hashtbl.find_opt t.ids g
let mem t g = Hashtbl.mem t.ids g
let encode t grams =
  Array.of_list (List.map (fun g -> match find t g with Some i -> i | None -> -1) grams)

let gram t i = t.grams.(i)
let size t = Array.length t.grams

(* Both gram arrays are lex-sorted, so one merge pass maps every id:
   no per-gram hashing, and the resulting map is strictly increasing on
   the shared grams — which is what lets a translated id-sorted count
   array stay sorted without re-sorting. *)
let translate t ~into =
  if t == into then Array.init (size t) Fun.id
  else
    match List.assq_opt into t.xlat with
    | Some map -> map
    | None ->
      let n = Array.length t.grams and m = Array.length into.grams in
      let map = Array.make n (-1) in
      let j = ref 0 in
      for i = 0 to n - 1 do
        let g = t.grams.(i) in
        while !j < m && String.compare into.grams.(!j) g < 0 do
          incr j
        done;
        if !j < m && String.equal into.grams.(!j) g then map.(i) <- !j
      done;
      t.xlat <- (into, map) :: t.xlat;
      map

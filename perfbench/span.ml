(* Spans recorded by the benchmark around its calls into each layer.

   A span holds its name, start, end, parent span and the id of the
   operation it belongs to, plus the words the process allocated while
   it was open.  Spans are kept in memory and written out once, when
   the run ends; a layer's self time is its span's duration minus the
   part its direct children cover.  With recording off, [with_span] is
   the bare call. *)

type t = {
  id : int;
  parent : int;  (* -1 for a root *)
  op : int;
  name : string;
  start_ns : int64;
  end_ns : int64;
  alloc_words : float;
}

let recording = ref false
let recorded : t list ref = ref []
let next_id = ref 0
let open_stack : int list ref = ref []

let now_ns = Robust.Deadline.now_ns

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let with_span ~op name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    open_stack := id :: !open_stack;
    let words0 = allocated_words () in
    let start_ns = now_ns () in
    let finish () =
      let end_ns = now_ns () in
      let alloc_words = allocated_words () -. words0 in
      open_stack := List.tl !open_stack;
      recorded := { id; parent; op; name; start_ns; end_ns; alloc_words } :: !recorded
    in
    Fun.protect ~finally:finish f
  end

let duration_ms s = Int64.to_float (Int64.sub s.end_ns s.start_ns) /. 1e6

(* Self time and self allocation of every span: its own figures minus
   those of its direct children. *)
let self_figures spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let ms, words = Option.value (Hashtbl.find_opt children s.parent) ~default:(0.0, 0.0) in
        Hashtbl.replace children s.parent (ms +. duration_ms s, words +. s.alloc_words)
      end)
    spans;
  List.map
    (fun s ->
      let ms, words = Option.value (Hashtbl.find_opt children s.id) ~default:(0.0, 0.0) in
      (s, duration_ms s -. ms, s.alloc_words -. words))
    spans

(* Per operation id, the summed self time (ms) and self allocation
   (words) of the spans called [name]. *)
let per_op spans name =
  let by_op = Hashtbl.create 64 in
  List.iter
    (fun (s, ms, words) ->
      if s.name = name then begin
        let ms0, words0 = Option.value (Hashtbl.find_opt by_op s.op) ~default:(0.0, 0.0) in
        Hashtbl.replace by_op s.op (ms0 +. ms, words0 +. words)
      end)
    (self_figures spans);
  by_op

let all () = List.rev !recorded

let write_jsonl path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"alloc_words\":%.0f}\n"
        s.id s.parent s.op s.name s.start_ns s.end_ns s.alloc_words)
    spans;
  close_out oc

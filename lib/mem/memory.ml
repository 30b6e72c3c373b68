(* A [Value.t] is an immediate host int, so a simulated word costs
   exactly one unboxed host word in a cell array. *)

type block = {
  mutable cells : Value.t array option; (* [None] once freed *)
  mutable freed_at : int;           (* event stamp of the last free *)
}

type t = {
  blocks : block Support.Vec.t;
  free_ids : int Support.Vec.t;
  mutable allocated : int;
  mutable events : int;             (* alloc/free event counter *)
}

let create () =
  { blocks = Support.Vec.create ();
    free_ids = Support.Vec.create ();
    allocated = 0;
    events = 0 }

let alloc_block t ~words =
  if words <= 0 then invalid_arg "Memory.alloc_block";
  t.events <- t.events + 1;
  let cells = Some (Array.make words Value.zero) in
  let id =
    if Support.Vec.is_empty t.free_ids then begin
      Support.Vec.push t.blocks { cells; freed_at = -1 };
      Support.Vec.length t.blocks - 1
    end
    else begin
      let id = Support.Vec.pop t.free_ids in
      (Support.Vec.get t.blocks id).cells <- cells;
      id
    end
  in
  t.allocated <- t.allocated + words;
  Addr.make ~block:id ~offset:0

let find t addr =
  let id = Addr.block addr in
  if id >= Support.Vec.length t.blocks then
    invalid_arg "Memory: address in unknown block";
  let b = Support.Vec.get t.blocks id in
  match b.cells with
  | None ->
    invalid_arg
      (Printf.sprintf
         "Memory: access to freed block (id %d freed at event %d, now %d)" id
         b.freed_at t.events)
  | Some cells -> cells

let free_block t base =
  let cells = find t base in
  t.events <- t.events + 1;
  t.allocated <- t.allocated - Array.length cells;
  let b = Support.Vec.get t.blocks (Addr.block base) in
  b.cells <- None;
  b.freed_at <- t.events;
  Support.Vec.push t.free_ids (Addr.block base)

let block_words t addr = Array.length (find t addr)

let live_block t addr =
  let id = Addr.block addr in
  id < Support.Vec.length t.blocks
  && (Support.Vec.get t.blocks id).cells <> None

let get t addr =
  let cells = find t addr in
  let off = Addr.offset addr in
  if off >= Array.length cells then invalid_arg "Memory.get: offset out of block";
  cells.(off)

let cells = find

let set t addr v =
  let cells = find t addr in
  let off = Addr.offset addr in
  if off >= Array.length cells then invalid_arg "Memory.set: offset out of block";
  cells.(off) <- v

let blit t ~src ~dst ~words =
  let scells = find t src and dcells = find t dst in
  let soff = Addr.offset src and doff = Addr.offset dst in
  if soff + words > Array.length scells || doff + words > Array.length dcells then
    invalid_arg "Memory.blit: out of range";
  Array.blit scells soff dcells doff words

let fill t ~dst ~words v =
  let cells = find t dst in
  let off = Addr.offset dst in
  if off + words > Array.length cells then invalid_arg "Memory.fill: out of range";
  Array.fill cells off words v

let allocated_words t = t.allocated

let bytes_per_word = 8

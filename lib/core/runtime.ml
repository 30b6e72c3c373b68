module Value = Mem.Value
module Header = Mem.Header
module Memory = Mem.Memory

exception Sim_raise of int

type handler_entry = {
  h_depth : int;
  h_id : int;
}

type t = {
  cfg : Config.t;
  mem : Memory.t;
  table : Rstack.Trace_table.t;
  stack : Rstack.Stack_.t;
  regs : Rstack.Reg_file.t;
  cache : Rstack.Scan_cache.t;
  markers : Rstack.Markers.t;
  globals : Value.t array;
  exn_cell : Value.t array;
  stats : Collectors.Gc_stats.t;
  site_names : string Support.Vec.t;
  profiler : Heap_profile.Profiler.t option;
  trace_edges : (int * int, unit) Hashtbl.t option;
      (* site pairs already emitted as [site_edge] trace records;
         [Some] only when created while tracing *)
  pretenure_dyn : (int, bool) Hashtbl.t;
      (* the adaptive control plane's per-site pretenure overrides,
         written through [Hooks.set_pretenure] at collection boundaries;
         a present binding wins over the static policy.  Stays empty
         when [cfg.adaptive] is off. *)
  handlers : handler_entry Support.Vec.t;
  mutable next_handler_id : int;
  mutable last_scan_serial : int;
  mutable pending_unwind : int;  (* deferred strategy: min depth reached *)
  mutable collector : Collectors.Collector.t option;
}

let config t = t.cfg
let stats t = t.stats

let collector t =
  match t.collector with
  | Some c -> c
  | None -> assert false

let birth_bytes t =
  t.stats.Collectors.Gc_stats.words_allocated * Memory.bytes_per_word

(* --- heap checking --- *)

let check_heap t =
  let visited : (Mem.Addr.t, unit) Hashtbl.t = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let push_value v =
    if Value.is_ptr v then begin
      let a = Value.to_addr v in
      if not (Hashtbl.mem visited a) then begin
        Hashtbl.replace visited a ();
        Queue.add a queue
      end
    end
  in
  (* roots: trace-accurate stack scan against a scratch cache *)
  let scratch = Rstack.Scan_cache.create () in
  ignore
    (Rstack.Scan.run ~stack:t.stack ~regs:t.regs ~cache:scratch ~valid_prefix:0
       ~mode:Rstack.Scan.Full
       ~visit:(fun root -> push_value (Rstack.Root.get root))
      : Rstack.Scan.result);
  Array.iter push_value t.globals;
  push_value t.exn_cell.(0);
  let count = ref 0 in
  while not (Queue.is_empty queue) do
    let base = Queue.pop queue in
    incr count;
    if not (Memory.live_block t.mem base) then
      failwith "check_heap: pointer into a freed block";
    (match Header.forwarded t.mem base with
     | Some _ -> failwith "check_heap: dangling forwarding pointer"
     | None -> ());
    let hdr = Header.read t.mem base in
    for i = 0 to hdr.Header.len - 1 do
      if Header.is_pointer_field hdr i then
        push_value (Memory.get t.mem (Header.field_addr base i))
    done
  done;
  !count

(* --- hooks wired into the collector --- *)

let scan_stack_hook t mode visit =
  (* deferred exception strategy: fold unwinds recorded since the last
     collection into the marker state now (the paper's alternative of
     walking the handler chain at each collection) *)
  if t.pending_unwind < max_int then begin
    if t.cfg.Config.stack_markers then
      Rstack.Markers.exception_unwound t.markers ~target_depth:t.pending_unwind;
    t.pending_unwind <- max_int
  end;
  let valid =
    if t.cfg.Config.stack_markers then
      min
        (Rstack.Markers.valid_prefix t.markers)
        (min (Rstack.Scan_cache.length t.cache) (Rstack.Stack_.depth t.stack))
    else 0
  in
  let res =
    Rstack.Scan.run ~stack:t.stack ~regs:t.regs ~cache:t.cache
      ~valid_prefix:valid ~mode ~visit
  in
  let fresh =
    Rstack.Stack_.count_new_frames t.stack ~since_serial:t.last_scan_serial
  in
  t.last_scan_serial <- Rstack.Stack_.next_serial t.stack - 1;
  t.stats.Collectors.Gc_stats.new_frames_sum <-
    t.stats.Collectors.Gc_stats.new_frames_sum + fresh;
  res

let visit_globals_hook t visit =
  Array.iteri (fun i _ -> visit (Rstack.Root.Global (t.globals, i))) t.globals;
  visit (Rstack.Root.Global (t.exn_cell, 0))

let after_collection_hook t ~full:_ =
  if t.cfg.Config.verify_heap then ignore (check_heap t : int);
  if t.cfg.Config.stack_markers then begin
    let installed = Rstack.Markers.place t.markers t.stack in
    t.stats.Collectors.Gc_stats.marker_stubs_installed <-
      t.stats.Collectors.Gc_stats.marker_stubs_installed + installed;
    if Obs.Trace.enabled () then
      Obs.Trace.marker_place ~installed ~depth:(Rstack.Stack_.depth t.stack)
  end

let create cfg =
  (* Install the header layout before the first object exists.  The
     packed layout drops the per-object birth word unless someone will
     read births: the live profiler or the trace stream (docs/LAYOUT.md,
     docs/TRACING.md). *)
  Header.set_layout
    ~birth:(cfg.Config.profiling || Obs.Trace.detailed ())
    cfg.Config.header_layout;
  let mem = Memory.create () in
  let table = Rstack.Trace_table.create () in
  let stats = Collectors.Gc_stats.create () in
  let t =
    { cfg;
      mem;
      table;
      stack = Rstack.Stack_.create table;
      regs = Rstack.Reg_file.create ();
      cache = Rstack.Scan_cache.create ();
      markers = Rstack.Markers.create ~n:cfg.Config.marker_spacing;
      globals = Array.make cfg.Config.global_slots Value.zero;
      exn_cell = Array.make 1 Value.zero;
      stats;
      site_names = Support.Vec.create ();
      profiler =
        (if cfg.Config.profiling then
           Some
             (Heap_profile.Profiler.create
                ~now_bytes:
                  (fun () -> stats.Collectors.Gc_stats.words_allocated
                             * Memory.bytes_per_word))
         else None);
      trace_edges =
        (if Obs.Trace.detailed () then Some (Hashtbl.create 64) else None);
      pretenure_dyn = Hashtbl.create 16;
      handlers = Support.Vec.create ();
      next_handler_id = 0;
      last_scan_serial = -1;
      pending_unwind = max_int;
      collector = None }
  in
  let hooks =
    { Collectors.Hooks.scan_stack = scan_stack_hook t;
      visit_globals = visit_globals_hook t;
      after_collection = (fun ~full -> after_collection_hook t ~full);
      object_hooks =
        Option.map Heap_profile.Profiler.object_hooks t.profiler;
      site_needs_scan =
        (fun site -> Pretenure.needs_scan cfg.Config.pretenure ~site);
      set_pretenure =
        (fun ~site ~enabled -> Hashtbl.replace t.pretenure_dyn site enabled) }
  in
  let col =
    match cfg.Config.collector with
    | Config.Semispace ->
      Collectors.Collector.Semispace
        (Collectors.Semispace.create mem ~hooks ~stats
           { Collectors.Semispace.target_liveness =
               cfg.Config.semispace_target_liveness;
             budget_bytes = cfg.Config.budget_bytes;
             initial_bytes = cfg.Config.semispace_initial_bytes;
             parallelism = cfg.Config.parallelism;
             parallelism_mode = cfg.Config.parallelism_mode;
             chunk_words = cfg.Config.chunk_words;
             eager_evac = cfg.Config.eager_evac })
    | Config.Generational ->
      Collectors.Collector.Generational
        (Collectors.Generational.create mem ~hooks ~stats
           (Config.generational_config cfg))
  in
  t.collector <- Some col;
  t

let destroy t = Collectors.Collector.destroy (collector t)

(* --- registration --- *)

let register_frame_regs t ~name ~slots ~regs =
  Rstack.Trace_table.register t.table { Rstack.Trace_table.name; slots; regs }

let register_frame t ~name ~slots =
  register_frame_regs t ~name ~slots ~regs:(Rstack.Trace_table.plain_regs ())

let register_site t ~name =
  Support.Vec.push t.site_names name;
  Support.Vec.length t.site_names - 1

let site_name t site =
  if site < 0 || site >= Support.Vec.length t.site_names then
    Printf.sprintf "site-%d" site
  else Support.Vec.get t.site_names site

let site_count t = Support.Vec.length t.site_names

(* --- operands --- *)

type src =
  | Imm of int
  | Nil
  | Slot of int
  | Reg of int
  | Global of int

type dst =
  | To_slot of int
  | To_reg of int
  | To_global of int

type field =
  | P of src
  | I of src

let read t = function
  | Imm n -> Value.of_int n
  | Nil -> Value.null
  | Slot i -> Rstack.Frame.get (Rstack.Stack_.top t.stack) i
  | Reg r -> Rstack.Reg_file.get t.regs r
  | Global g -> t.globals.(g)

let write t dst v =
  match dst with
  | To_slot i -> Rstack.Frame.set (Rstack.Stack_.top t.stack) i v
  | To_reg r -> Rstack.Reg_file.set t.regs r v
  | To_global g -> t.globals.(g) <- v

(* --- frames --- *)

let depth t = Rstack.Stack_.depth t.stack

let pop_frame t frame =
  let d = Rstack.Stack_.depth t.stack in
  let popped = Rstack.Stack_.pop t.stack in
  assert (popped == frame);
  if t.cfg.Config.stack_markers then begin
    if popped.Rstack.Frame.marked then
      t.stats.Collectors.Gc_stats.marker_stub_hits <-
        t.stats.Collectors.Gc_stats.marker_stub_hits + 1;
    Rstack.Markers.frame_popped t.markers popped ~depth:d
  end

let mut_op t =
  t.stats.Collectors.Gc_stats.mutator_ops <-
    t.stats.Collectors.Gc_stats.mutator_ops + 1

let rec set_args frame i = function
  | [] -> ()
  | v :: rest ->
    Rstack.Frame.set frame i v;
    set_args frame (i + 1) rest

let call t ~key ~args f =
  mut_op t;
  let frame = Rstack.Stack_.push t.stack ~key in
  set_args frame 0 args;
  match f () with
  | v ->
    pop_frame t frame;
    v
  | exception (Sim_raise _ as e) ->
    (* the simulated unwind already removed this frame *)
    raise e
  | exception e ->
    (* host-level exception (test assertion, bug): keep the simulated
       stack consistent before propagating *)
    if Rstack.Stack_.depth t.stack > 0 && Rstack.Stack_.top t.stack == frame
    then pop_frame t frame;
    raise e

let get_slot t i = Rstack.Frame.get (Rstack.Stack_.top t.stack) i
let set_slot t i v = Rstack.Frame.set (Rstack.Stack_.top t.stack) i v
let get_reg t r = Rstack.Reg_file.get t.regs r
let set_reg t r v = Rstack.Reg_file.set t.regs r v

let get_global t g = t.globals.(g)
let set_global t g v = t.globals.(g) <- v

let int_of t src = Value.to_int (read t src)

(* --- allocation --- *)

let note_alloc t ~site ~words =
  match t.profiler with
  | None -> ()
  | Some p -> Heap_profile.Profiler.note_alloc p ~site ~words

let note_edge_value t ~from_site v =
  (* feeds both edge consumers: the live profiler (scan elision decided
     in-process) and the trace (the offline analyzer's evidence for the
     same decision) *)
  if (t.profiler <> None || t.trace_edges <> None) && Value.is_ptr v then begin
    let target = Value.to_addr v in
    let cells = Memory.cells t.mem target
    and off = Mem.Addr.offset target in
    (* a forwarded target cannot happen outside a collection *)
    if not (Header.is_forwarded_c cells ~off) then begin
      let to_site = Header.site_c cells ~off in
      (match t.profiler with
       | None -> ()
       | Some p -> Heap_profile.Profiler.note_edge p ~from_site ~to_site);
      (match t.trace_edges with
       | None -> ()
       | Some seen ->
         if not (Hashtbl.mem seen (from_site, to_site)) then begin
           Hashtbl.replace seen (from_site, to_site) ();
           Obs.Trace.site_edge ~from_site ~to_site
         end)
    end
  end

let alloc_object t hdr =
  let birth = birth_bytes t in
  let site = hdr.Header.site in
  let col = collector t in
  let pretenure =
    (* the adaptive override (set at collection boundaries) wins over
       the static policy; absent a binding the static decision stands *)
    match Hashtbl.find_opt t.pretenure_dyn site with
    | Some b -> b
    | None -> Pretenure.should_pretenure t.cfg.Config.pretenure ~site
  in
  let base =
    if pretenure then begin
      if Obs.Trace.enabled () then
        Obs.Trace.pretenure ~site ~words:(Header.object_words hdr);
      Collectors.Collector.alloc_pretenured col hdr ~birth
    end
    else Collectors.Collector.alloc col hdr ~birth
  in
  note_alloc t ~site ~words:(Header.object_words hdr);
  base

let check_pointer_value v =
  if Value.is_int v then
    invalid_arg "Runtime: integer written to a pointer field"

let check_integer_value v =
  if Value.is_ptr v then
    invalid_arg "Runtime: pointer written to an integer field"

(* The field operations below resolve the object's block once and decode
   its header straight from the cell array, so no access allocates.
   [obj_cells] and [field_pos] make the checks the safe path
   ([Header.read], [Memory.get]/[set]) makes, with the same messages. *)

let obj_cells t base =
  let cells = Memory.cells t.mem base in
  if Header.is_forwarded_c cells ~off:(Mem.Addr.offset base) then
    invalid_arg "Header.read: forwarded object";
  cells

let field_pos cells ~off ~idx ~what =
  if idx < 0 || idx >= Header.len_c cells ~off then
    invalid_arg "Runtime: field index out of bounds";
  let pos = off + Header.header_words () + idx in
  if pos >= Array.length cells then invalid_arg what;
  pos

let rec record_mask i = function
  | [] -> 0
  | P _ :: rest -> (1 lsl i) lor record_mask (i + 1) rest
  | I _ :: rest -> record_mask (i + 1) rest

let rec init_fields t ~site cells ~off idx = function
  | [] -> ()
  | f :: rest ->
    let v =
      match f with
      | P s ->
        let v = read t s in
        check_pointer_value v;
        note_edge_value t ~from_site:site v;
        v
      | I s ->
        let v = read t s in
        check_integer_value v;
        v
    in
    cells.(field_pos cells ~off ~idx ~what:"Memory.set: offset out of block")
    <- v;
    init_fields t ~site cells ~off (idx + 1) rest

let alloc_record t ~site ~dst fields =
  let mask = record_mask 0 fields in
  let hdr =
    { Header.kind = Header.Record { mask }; len = List.length fields; site }
  in
  let base = alloc_object t hdr in
  init_fields t ~site (Memory.cells t.mem base) ~off:(Mem.Addr.offset base) 0
    fields;
  write t dst (Value.of_addr base)

let alloc_ptr_array t ~site ~dst ~len =
  let hdr = { Header.kind = Header.Ptr_array; len; site } in
  let base = alloc_object t hdr in
  (* null pointers, not zero integers *)
  Memory.fill t.mem ~dst:(Header.field_addr base 0) ~words:len Value.null;
  write t dst (Value.of_addr base)

let alloc_nonptr_array t ~site ~dst ~len =
  let hdr = { Header.kind = Header.Nonptr_array; len; site } in
  let base = alloc_object t hdr in
  write t dst (Value.of_addr base)

(* --- heap access --- *)

let obj_base t src =
  let v = read t src in
  if Value.is_int v then invalid_arg "Runtime: dereferencing an integer";
  if Value.is_null v then invalid_arg "Runtime: null pointer dereference";
  Value.to_addr v

let load_field t ~obj ~idx ~dst =
  mut_op t;
  let base = obj_base t obj in
  let cells = obj_cells t base in
  let off = Mem.Addr.offset base in
  write t dst
    cells.(field_pos cells ~off ~idx ~what:"Memory.get: offset out of block")

let store_field t ~obj ~idx field =
  mut_op t;
  let base = obj_base t obj in
  let cells = obj_cells t base in
  let off = Mem.Addr.offset base in
  let pos = field_pos cells ~off ~idx ~what:"Memory.set: offset out of block" in
  match field with
  | P s ->
    if not (Header.is_pointer_field_c cells ~off idx) then
      invalid_arg "Runtime: pointer store into a non-pointer field";
    let v = read t s in
    check_pointer_value v;
    cells.(pos) <- v;
    Collectors.Collector.record_update (collector t) ~obj:base
      ~loc:(Header.field_addr base idx);
    note_edge_value t ~from_site:(Header.site_c cells ~off) v
  | I s ->
    if Header.is_pointer_field_c cells ~off idx then
      invalid_arg "Runtime: integer store into a pointer field";
    let v = read t s in
    check_integer_value v;
    cells.(pos) <- v

let field_int t ~obj ~idx =
  mut_op t;
  let base = obj_base t obj in
  let cells = obj_cells t base in
  let off = Mem.Addr.offset base in
  Value.to_int
    cells.(field_pos cells ~off ~idx ~what:"Memory.get: offset out of block")

let obj_length t ~obj =
  let base = obj_base t obj in
  Header.len_c (obj_cells t base) ~off:(Mem.Addr.offset base)

let obj_site t ~obj =
  let base = obj_base t obj in
  Header.site_c (obj_cells t base) ~off:(Mem.Addr.offset base)

let is_nil t src = Value.is_null (read t src)

let same_obj t a b =
  let x = read t a and y = read t b in
  if Value.is_int x || Value.is_int y then
    invalid_arg "Runtime.same_obj: integer operand";
  Value.equal x y

(* --- exceptions --- *)

let try_with t body ~handler =
  let id = t.next_handler_id in
  t.next_handler_id <- id + 1;
  Support.Vec.push t.handlers
    { h_depth = Rstack.Stack_.depth t.stack; h_id = id };
  match body () with
  | v ->
    let entry = Support.Vec.pop t.handlers in
    assert (entry.h_id = id);
    v
  | exception Sim_raise id' when id' = id -> handler ()
  | exception e ->
    (* remove our entry if the raise skipped it (host exception) *)
    if
      (not (Support.Vec.is_empty t.handlers))
      && (Support.Vec.top t.handlers).h_id = id
    then ignore (Support.Vec.pop t.handlers : handler_entry);
    raise e

let raise_exn t src =
  let v = read t src in
  t.exn_cell.(0) <- v;
  if Support.Vec.is_empty t.handlers then
    failwith "Runtime: unhandled simulated exception";
  let entry = Support.Vec.pop t.handlers in
  Rstack.Stack_.unwind_to t.stack ~depth:entry.h_depth;
  t.stats.Collectors.Gc_stats.exception_unwinds <-
    t.stats.Collectors.Gc_stats.exception_unwinds + 1;
  if Obs.Trace.enabled () then Obs.Trace.unwind ~target_depth:entry.h_depth;
  (match t.cfg.Config.exception_strategy with
   | Config.Eager_watermark ->
     if t.cfg.Config.stack_markers then
       Rstack.Markers.exception_unwound t.markers ~target_depth:entry.h_depth
   | Config.Deferred_handler_walk ->
     t.pending_unwind <- min t.pending_unwind entry.h_depth);
  raise (Sim_raise entry.h_id)

let exn_value t = t.exn_cell.(0)

(* --- control and stats --- *)

let collect_now t = Collectors.Collector.collect_now (collector t)

let max_stack_depth t = Rstack.Stack_.max_depth t.stack

let marker_stub_hits t = Rstack.Markers.stub_hits t.markers

let observe_exit_deaths t =
  match t.profiler with
  | None -> ()
  | Some p ->
    let hooks = Heap_profile.Profiler.object_hooks p in
    let visited : (Mem.Addr.t, unit) Hashtbl.t = Hashtbl.create 1024 in
    let queue = Queue.create () in
    let push_value v =
      if Value.is_ptr v then begin
        let a = Value.to_addr v in
        if not (Hashtbl.mem visited a) then begin
          Hashtbl.replace visited a ();
          Queue.add a queue
        end
      end
    in
    let scratch = Rstack.Scan_cache.create () in
    ignore
      (Rstack.Scan.run ~stack:t.stack ~regs:t.regs ~cache:scratch
         ~valid_prefix:0 ~mode:Rstack.Scan.Full
         ~visit:(fun root -> push_value (Rstack.Root.get root))
        : Rstack.Scan.result);
    Array.iter push_value t.globals;
    push_value t.exn_cell.(0);
    while not (Queue.is_empty queue) do
      let base = Queue.pop queue in
      let hdr = Header.read t.mem base in
      hooks.Collectors.Hooks.on_die ~site:hdr.Header.site
        ~birth:(Header.birth t.mem base)
        ~words:(Header.object_words hdr);
      for i = 0 to hdr.Header.len - 1 do
        if Header.is_pointer_field hdr i then
          push_value (Memory.get t.mem (Header.field_addr base i))
      done
    done

let profile t =
  Option.map
    (fun p ->
      Heap_profile.Profile_data.of_profiler p ~site_name:(site_name t))
    t.profiler

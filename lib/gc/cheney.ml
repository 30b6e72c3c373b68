(* Two implementations of every inner loop live here.

   The *safe* path goes through [Memory.get]/[set] and [Header.read]:
   every field touched re-resolves its block, and every object visited
   allocates a decoded [Header.t].  It is the executable specification.

   The *raw* path (default, [use_raw]) resolves each object's block once
   into a cell-array handle ([Memory.cells]) and decodes header fields
   straight from the cells, with no allocation.  [test_gc.ml] pins the two
   paths to identical [Gc_stats] counters and heap contents. *)

let use_raw = ref true

type aging = {
  young_to : Mem.Space.t;
  threshold : int;
}

type t = {
  mem : Mem.Memory.t;
  in_from : Mem.Addr.t -> bool;
  to_space : Mem.Space.t;
  to_cells : Mem.Value.t array;     (* block handle of [to_space] *)
  aging : aging option;
  young_cells : Mem.Value.t array;  (* block handle of [aging.young_to] *)
  remember : (loc:Mem.Addr.t -> owner:Mem.Addr.t option -> unit) option;
  los : Los.t option;
  trace_los : bool;
  promote_alloc : (int -> Mem.Addr.t option) option;
      (* when set, promotions are placed by this allocator (a backend
         over [to_space]'s block) instead of bumping the to-space
         frontier, and each copy is queued on [gray_promoted]: grants
         may land in holes below the frontier, so the contiguous
         scan-pointer walk cannot find them *)
  object_hooks : Hooks.object_hooks option;
  eager : bool;                     (* hierarchical (eager-child) evacuation *)
  mutable eager_budget : int;       (* words left under the current root *)
  mutable scan : Mem.Addr.t;        (* to-space scan pointer *)
  mutable scan_young : Mem.Addr.t;  (* young to-space scan pointer *)
  gray_large : Mem.Addr.t Support.Vec.t;
  gray_promoted : Mem.Addr.t Support.Vec.t;
  mutable copied : int;
  mutable promoted : int;
  mutable scanned : int;            (* words walked by the drain loops *)
  sites : (int, int * int * int) Hashtbl.t option;
      (* per-site (objects, first-collection objects, words) copied —
         only allocated when the trace layer is recording, [None]
         otherwise *)
}

let create ~mem ~in_from ~to_space ?aging ?remember ?promote_alloc ?(eager = false)
    ?site_tallies ~los ~trace_los ~object_hooks () =
  let site_tallies =
    match site_tallies with
    | Some b -> b
    | None -> Obs.Trace.detailed ()
  in
  { mem;
    in_from;
    to_space;
    to_cells = Mem.Memory.cells mem (Mem.Space.base to_space);
    aging;
    young_cells =
      (match aging with
       | Some a -> Mem.Memory.cells mem (Mem.Space.base a.young_to)
       | None -> [||]);
    remember;
    los;
    trace_los;
    promote_alloc;
    object_hooks;
    eager;
    eager_budget = 0;
    scan = Mem.Space.frontier to_space;
    scan_young =
      (match aging with
       | Some a -> Mem.Space.frontier a.young_to
       | None -> Mem.Addr.null);
    gray_large = Support.Vec.create ();
    gray_promoted = Support.Vec.create ();
    copied = 0;
    promoted = 0;
    scanned = 0;
    sites = (if site_tallies then Some (Hashtbl.create 32) else None) }

(* per-site survival accounting; engines only pay for it while tracing *)
let note_site_copy t ~site ~first ~words =
  match t.sites with
  | None -> ()
  | Some tab ->
    let objects, firsts, w =
      match Hashtbl.find_opt tab site with
      | Some p -> p
      | None -> (0, 0, 0)
    in
    Hashtbl.replace tab site
      (objects + 1, (if first then firsts + 1 else firsts), w + words)

(* destination grant for one promotion: the backend placement policy
   when [promote_alloc] is set (grants stay inside [to_space]'s block,
   so the resolved cell handles remain valid), the to-space frontier
   otherwise *)
let promote_dst t words =
  match t.promote_alloc with
  | Some alloc ->
    (match alloc words with
     | Some dst -> dst
     | None ->
       failwith "Cheney: tenured backend exhausted during promotion")
  | None ->
    (match Mem.Space.alloc t.to_space words with
     | Some dst -> dst
     | None -> failwith "Cheney: to-space overflow (collector sizing bug)")

(* --- raw path --- *)

(* [src]/[soff] locate the object being copied in its already-resolved
   block *)
let copy_object_raw t src soff =
  let words = Mem.Header.object_words_c src ~off:soff in
  (* destination: under an aging nursery, survivors below the tenure
     threshold are copied back young with their age bumped *)
  let age = Mem.Header.age_c src ~off:soff in
  let dst, dcells, promote =
    match t.aging with
    | Some { young_to; threshold } when age + 1 < threshold ->
      (match Mem.Space.alloc young_to words with
       | Some dst -> (dst, t.young_cells, false)
       | None -> failwith "Cheney: to-space overflow (collector sizing bug)")
    | Some _ | None -> (promote_dst t words, t.to_cells, true)
  in
  let doff = Mem.Addr.offset dst in
  let first_copy = not (Mem.Header.survivor_c src ~off:soff) in
  (match t.object_hooks with
   | None -> ()
   | Some h ->
     let site = Mem.Header.site_c src ~off:soff in
     h.Hooks.on_copy ~site ~words;
     if first_copy then h.Hooks.on_first_survival ~site ~words);
  Array.blit src soff dcells doff words;
  Mem.Header.set_survivor_c dcells ~off:doff;
  if not promote then
    Mem.Header.set_age_c dcells ~off:doff (min Mem.Header.max_age (age + 1));
  if t.sites <> None then
    note_site_copy t
      ~site:(Mem.Header.site_c src ~off:soff)
      ~first:first_copy ~words;
  Mem.Header.set_forward_c src ~off:soff ~target:dst;
  t.copied <- t.copied + words;
  if promote then begin
    t.promoted <- t.promoted + words;
    if t.promote_alloc <> None then Support.Vec.push t.gray_promoted dst
  end;
  dst

(* --- hierarchical (eager-child) evacuation ---

   After copying a parent, pull its not-yet-forwarded children
   depth-first into the same to-space run, so parent and children sit
   cache-adjacent instead of breadth-first-scattered (ROADMAP: lhc's
   "evacuate children eagerly when safe").  Placement only: the parent's
   fields are NOT rewritten here — the normal scan pass visits them
   later and finds the children already forwarded.  The walk reads the
   children out of the fresh copy (the source header now holds the
   forwarding word).  Both a depth bound and a per-root word budget cap
   the recursion so the parallel drain's per-domain chunks stay small;
   past either bound the children fall back to the ordinary
   scan-pointer/gray-queue order. *)

let eager_depth_bound = 4
let eager_words_bound = 64

let rec eager_children_raw t dst ~depth =
  let dcells = Mem.Memory.cells t.mem dst in
  let doff = Mem.Addr.offset dst in
  let tag = Mem.Header.tag_c dcells ~off:doff in
  if tag <> Mem.Header.tag_nonptr_array then begin
    let len = Mem.Header.len_c dcells ~off:doff in
    let masked = tag = Mem.Header.tag_record in
    let mask = if masked then Mem.Header.mask_c dcells ~off:doff else 0 in
    let hw = Mem.Header.header_words () in
    let i = ref 0 in
    while !i < len && t.eager_budget > 0 do
      if (not masked) || mask land (1 lsl !i) <> 0 then begin
        let w = dcells.(doff + hw + !i) in
        if Mem.Value.is_ptr w then begin
          let a = Mem.Value.to_addr w in
          if t.in_from a then begin
            let src = Mem.Memory.cells t.mem a in
            let soff = Mem.Addr.offset a in
            if not (Mem.Header.is_forwarded_c src ~off:soff) then begin
              t.eager_budget <-
                t.eager_budget - Mem.Header.object_words_c src ~off:soff;
              let cdst = copy_object_raw t src soff in
              if depth + 1 < eager_depth_bound && t.eager_budget > 0 then
                eager_children_raw t cdst ~depth:(depth + 1)
            end
          end
        end
      end;
      incr i
    done
  end

(* forward one word; returns the (possibly rewritten) word *)
let evacuate_raw t w =
  if not (Mem.Value.is_ptr w) then w
  else begin
    let a = Mem.Value.to_addr w in
    if t.in_from a then begin
      let src = Mem.Memory.cells t.mem a in
      let soff = Mem.Addr.offset a in
      if Mem.Header.is_forwarded_c src ~off:soff then
        Mem.Value.of_addr (Mem.Header.forward_target_c src ~off:soff)
      else begin
        let dst = copy_object_raw t src soff in
        if t.eager then begin
          t.eager_budget <- eager_words_bound;
          eager_children_raw t dst ~depth:0
        end;
        Mem.Value.of_addr dst
      end
    end
    else begin
      (match t.los with
       | Some los when t.trace_los && Los.contains los a ->
         if Los.mark los a then Support.Vec.push t.gray_large a
       | Some _ | None -> ());
      w
    end
  end

(* aging: a location outside the young to-space now pointing into it is
   an old-to-young edge that must stay remembered.  Only reached when
   both [remember] and [aging] are set. *)
let remember_check t ~loc ~owner w' =
  match t.remember, t.aging with
  | Some remember, Some a
    when Mem.Value.is_ptr w'
         && Mem.Space.contains a.young_to (Mem.Value.to_addr w')
         && not (Mem.Space.contains a.young_to loc) ->
    remember ~loc ~owner
  | (Some _ | None), _ -> ()

let scan_object_raw t base =
  let cells = Mem.Memory.cells t.mem base in
  let off = Mem.Addr.offset base in
  let tag = Mem.Header.tag_c cells ~off in
  let len = Mem.Header.len_c cells ~off in
  (if tag <> Mem.Header.tag_nonptr_array then begin
     let aging_edges = t.remember <> None && t.aging <> None in
     let visit i =
       let foff = off + (Mem.Header.header_words ()) + i in
       let w = cells.(foff) in
       let w' = evacuate_raw t w in
       if not (Mem.Value.equal w' w) then cells.(foff) <- w';
       if aging_edges then
         remember_check t
           ~loc:(Mem.Addr.unsafe_add base ((Mem.Header.header_words ()) + i))
           ~owner:(Some base) w'
     in
     if tag = Mem.Header.tag_ptr_array then
       for i = 0 to len - 1 do
         visit i
       done
     else begin
       let mask = Mem.Header.mask_c cells ~off in
       for i = 0 to len - 1 do
         if mask land (1 lsl i) <> 0 then visit i
       done
     end
   end);
  (Mem.Header.header_words ()) + len

let visit_loc_raw t loc =
  let cells = Mem.Memory.cells t.mem loc in
  let off = Mem.Addr.offset loc in
  let w = cells.(off) in
  let w' = evacuate_raw t w in
  if not (Mem.Value.equal w' w) then cells.(off) <- w';
  if t.remember <> None && t.aging <> None then
    remember_check t ~loc ~owner:None w'

(* --- safe (reference) path --- *)

let copy_object_safe t a =
  let words = Mem.Header.object_words_at t.mem a in
  let age = Mem.Header.age t.mem a in
  let dst, promote =
    match t.aging with
    | Some { young_to; threshold } when age + 1 < threshold ->
      (match Mem.Space.alloc young_to words with
       | Some dst -> (dst, false)
       | None -> failwith "Cheney: to-space overflow (collector sizing bug)")
    | Some _ | None -> (promote_dst t words, true)
  in
  let hdr = Mem.Header.read t.mem a in
  let first_copy = not (Mem.Header.survivor t.mem a) in
  Mem.Memory.blit t.mem ~src:a ~dst ~words;
  Mem.Header.set_survivor t.mem dst;
  if not promote then
    Mem.Header.set_age t.mem dst (min Mem.Header.max_age (age + 1));
  (match t.object_hooks with
   | None -> ()
   | Some h ->
     h.Hooks.on_copy ~site:hdr.Mem.Header.site ~words;
     if first_copy then h.Hooks.on_first_survival ~site:hdr.Mem.Header.site ~words);
  if t.sites <> None then
    note_site_copy t ~site:hdr.Mem.Header.site ~first:first_copy ~words;
  Mem.Header.set_forward t.mem a ~target:dst;
  t.copied <- t.copied + words;
  if promote then begin
    t.promoted <- t.promoted + words;
    if t.promote_alloc <> None then Support.Vec.push t.gray_promoted dst
  end;
  dst

(* safe twin of [eager_children_raw]; identical traversal order so the
   two paths place (and account) objects identically *)
let rec eager_children_safe t dst ~depth =
  let hdr = Mem.Header.read t.mem dst in
  match hdr.Mem.Header.kind with
  | Mem.Header.Nonptr_array -> ()
  | Mem.Header.Ptr_array | Mem.Header.Record _ ->
    let i = ref 0 in
    while !i < hdr.Mem.Header.len && t.eager_budget > 0 do
      if Mem.Header.is_pointer_field hdr !i then begin
        let v = Mem.Memory.get t.mem (Mem.Header.field_addr dst !i) in
        if Mem.Value.is_ptr v then begin
          let a = Mem.Value.to_addr v in
          if t.in_from a && Mem.Header.forwarded t.mem a = None then begin
            t.eager_budget <- t.eager_budget - Mem.Header.object_words_at t.mem a;
            let cdst = copy_object_safe t a in
            if depth + 1 < eager_depth_bound && t.eager_budget > 0 then
              eager_children_safe t cdst ~depth:(depth + 1)
          end
        end
      end;
      incr i
    done

let evacuate_safe t v =
  if not (Mem.Value.is_ptr v) then v
  else begin
    let a = Mem.Value.to_addr v in
    if t.in_from a then begin
      match Mem.Header.forwarded t.mem a with
      | Some target -> Mem.Value.of_addr target
      | None ->
        let dst = copy_object_safe t a in
        if t.eager then begin
          t.eager_budget <- eager_words_bound;
          eager_children_safe t dst ~depth:0
        end;
        Mem.Value.of_addr dst
    end
    else begin
      (match t.los with
       | Some los when t.trace_los && Los.contains los a ->
         if Los.mark los a then Support.Vec.push t.gray_large a
       | Some _ | None -> ());
      v
    end
  end

let visit_field_safe t ~owner loc =
  let v = Mem.Memory.get t.mem loc in
  let v' = evacuate_safe t v in
  if not (Mem.Value.equal v v') then Mem.Memory.set t.mem loc v';
  match t.remember, t.aging with
  | Some remember, Some a
    when Mem.Value.is_ptr v'
         && Mem.Space.contains a.young_to (Mem.Value.to_addr v')
         && not (Mem.Space.contains a.young_to loc) ->
    remember ~loc ~owner
  | (Some _ | None), _ -> ()

let scan_object_safe t base =
  let hdr = Mem.Header.read t.mem base in
  (match hdr.Mem.Header.kind with
   | Mem.Header.Nonptr_array -> ()
   | Mem.Header.Ptr_array ->
     for i = 0 to hdr.Mem.Header.len - 1 do
       visit_field_safe t ~owner:(Some base) (Mem.Header.field_addr base i)
     done
   | Mem.Header.Record { mask } ->
     for i = 0 to hdr.Mem.Header.len - 1 do
       if mask land (1 lsl i) <> 0 then
         visit_field_safe t ~owner:(Some base) (Mem.Header.field_addr base i)
     done);
  Mem.Header.object_words hdr

(* --- dispatching entry points --- *)

let evacuate t v = if !use_raw then evacuate_raw t v else evacuate_safe t v

let visit_root t root =
  let v = Rstack.Root.get root in
  let v' = evacuate t v in
  if not (Mem.Value.equal v v') then Rstack.Root.set root v'

let visit_loc t loc =
  if !use_raw then visit_loc_raw t loc else visit_field_safe t ~owner:None loc

let scan_object t base =
  if !use_raw then scan_object_raw t base else scan_object_safe t base

let visit_object_fields t base = ignore (scan_object t base : int)

let drain t =
  let progress = ref true in
  while !progress do
    progress := false;
    (match t.promote_alloc with
     | None ->
       (* to-space scan pointer *)
       while Mem.Addr.diff (Mem.Space.frontier t.to_space) t.scan > 0 do
         progress := true;
         let words = scan_object t t.scan in
         t.scanned <- t.scanned + words;
         t.scan <- Mem.Addr.unsafe_add t.scan words
       done
     | Some _ ->
       (* backend-placed promotions may land in holes below the
          frontier, invisible to the scan pointer; the gray queue
          carries them instead.  The frontier still moves (backend
          fallback bumps it), so the scan-pointer loop must not run —
          it would re-scan frontier grants already queued here. *)
       while not (Support.Vec.is_empty t.gray_promoted) do
         progress := true;
         let base = Support.Vec.pop t.gray_promoted in
         let words = scan_object t base in
         t.scanned <- t.scanned + words
       done);
    (* young to-space scan pointer (aging nurseries) *)
    (match t.aging with
     | None -> ()
     | Some a ->
       while Mem.Addr.diff (Mem.Space.frontier a.young_to) t.scan_young > 0 do
         progress := true;
         let words = scan_object t t.scan_young in
         t.scanned <- t.scanned + words;
         t.scan_young <- Mem.Addr.unsafe_add t.scan_young words
       done);
    (* queued large objects *)
    while not (Support.Vec.is_empty t.gray_large) do
      progress := true;
      let base = Support.Vec.pop t.gray_large in
      let words = scan_object t base in
      t.scanned <- t.scanned + words
    done
  done

let words_copied t = t.copied

let words_promoted t = t.promoted

let words_scanned t = t.scanned

let site_survivals t =
  match t.sites with
  | None -> []
  | Some tab ->
    List.sort compare
      (Hashtbl.fold (fun site (objects, first_objects, words) acc ->
           (site, objects, first_objects, words) :: acc)
         tab [])

let sweep_dead ~mem ~space ~on_die =
  (* one block handle for the whole walk; identical observable behaviour
     on both paths, so no safe variant is kept *)
  let base = Mem.Space.base space in
  let cells = Mem.Memory.cells mem base in
  let base_off = Mem.Addr.offset base in
  let limit = base_off + Mem.Space.used_words space in
  let rec walk off =
    if off < limit then begin
      let words = Mem.Header.object_words_c cells ~off in
      if
        (not (Mem.Header.is_forwarded_c cells ~off))
        (* chunk-tail fillers left by the parallel drain are not mutator
           objects; their "death" must not reach the profiler *)
        && not (Mem.Header.is_filler_c cells ~off)
      then
        on_die
          ~site:(Mem.Header.site_c cells ~off)
          ~birth:(Mem.Header.birth_c cells ~off)
          ~words;
      walk (off + words)
    end
  in
  walk base_off

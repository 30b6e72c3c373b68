type config = {
  target_liveness : float;
  budget_bytes : int;
  initial_bytes : int;
  parallelism : int;
  parallelism_mode : Par_drain.mode;
  chunk_words : int;   (* 0 = the engine's default *)
  eager_evac : bool;   (* hierarchical (eager-child) evacuation *)
}

let default_config ~budget_bytes =
  { target_liveness = 0.10;
    budget_bytes;
    initial_bytes = budget_bytes / 4;
    parallelism = 1;
    parallelism_mode = Par_drain.Virtual;
    chunk_words = 0;
    eager_evac = false }

type t = {
  mem : Mem.Memory.t;
  hooks : Hooks.t;
  cfg : config;
  stats : Gc_stats.t;
  semi_words : int;              (* physical size of one semispace *)
  mutable space : Mem.Space.t;
  mutable soft_limit : int;      (* collect when used exceeds this *)
  mutable live : int;            (* words surviving the last collection *)
  alloc_sites : (int, int * int) Hashtbl.t option;
      (* per-site (objects, words) allocated since the last [site_alloc]
         flush; [Some] only when created while tracing *)
}

let now () = Unix.gettimeofday ()

let create mem ~hooks ~stats cfg =
  if cfg.budget_bytes <= 0 then invalid_arg "Semispace.create: empty budget";
  if cfg.parallelism < 1 || cfg.parallelism > Gc_stats.max_domains then
    invalid_arg "Semispace.create: bad parallelism";
  if cfg.chunk_words <> 0 && cfg.chunk_words < 2 * (Mem.Header.header_words ()) then
    invalid_arg "Semispace.create: chunk_words too small";
  let semi_words = max 64 (cfg.budget_bytes / Mem.Memory.bytes_per_word / 2) in
  let initial_words = cfg.initial_bytes / Mem.Memory.bytes_per_word in
  let soft_limit = min semi_words (max 64 initial_words) in
  { mem;
    hooks;
    cfg;
    stats;
    semi_words;
    space = Mem.Space.create mem ~words:soft_limit;
    soft_limit;
    live = 0;
    alloc_sites =
      (if Obs.Trace.detailed () then Some (Hashtbl.create 32) else None) }

let note_alloc_site t ~site ~words =
  match t.alloc_sites with
  | None -> ()
  | Some tab ->
    let objects, w =
      match Hashtbl.find_opt tab site with
      | Some p -> p
      | None -> (0, 0)
    in
    Hashtbl.replace tab site (objects + 1, w + words)

let flush_site_allocs t =
  match t.alloc_sites with
  | None -> ()
  | Some tab ->
    if Hashtbl.length tab > 0 then begin
      let rows =
        Hashtbl.fold
          (fun site (objects, words) acc -> (site, objects, words) :: acc)
          tab []
      in
      List.iter
        (fun (site, objects, words) ->
          Obs.Trace.site_alloc ~site ~objects ~words)
        (List.sort compare rows);
      Hashtbl.reset tab
    end

let live_words t = t.live

let contains t a = Mem.Space.contains t.space a

let resize t ~need =
  (* S' = S * r'/r, i.e. a soft limit of live/r, clamped to the physical
     semispace and kept comfortably above the live data and any pending
     allocation *)
  let target = float_of_int t.live /. t.cfg.target_liveness in
  let floor_w = t.live + need + max (t.live / 4) 64 in
  t.soft_limit <- min t.semi_words (max floor_w (int_of_float target));
  if t.live + need > t.semi_words then
    failwith "Semispace: live data exceeds memory budget"

let collect_for t ~need =
  let traced = Obs.Trace.enabled () in
  if traced then begin
    Obs.Trace.gc_begin ~kind:"semi" ~nursery_w:0
      ~tenured_w:(Mem.Space.used_words t.space) ~los_w:0;
    flush_site_allocs t
  end;
  let t0 = now () in
  let roots = Support.Vec.create () in
  let res = t.hooks.Hooks.scan_stack Rstack.Scan.Full (Support.Vec.push roots) in
  t.hooks.Hooks.visit_globals (Support.Vec.push roots);
  Gc_stats.add_scan t.stats res;
  let t1 = now () in
  t.stats.Gc_stats.stack_seconds <- t.stats.Gc_stats.stack_seconds +. (t1 -. t0);
  if traced then
    Obs.Trace.phase ~name:"roots"
      ~dur_us:((t1 -. t0) *. 1e6)
      ~counters:[ ("roots", Support.Vec.length roots) ];
  (* size the to-space to the current policy limit, not the whole budget
     share: the physical grant tracks the live set, so huge budgets (the
     calibration runs) do not allocate or zero hundreds of megabytes per
     collection.  Growth decided by the resizing policy lands at the next
     collection. *)
  let seq_words =
    min t.semi_words
      (max 64
         (max
            (Mem.Space.used_words t.space + need)
            t.soft_limit))
  in
  (* parallelism = 1 is the sequential oracle: same engine, same sizing.
     A parallel drain additionally needs to-space headroom for chunk
     tails and fillers, and stays on the raw paths (the safe path is the
     sequential reference). *)
  let par = t.cfg.parallelism > 1 && !Cheney.use_raw in
  let to_words =
    if par then
      seq_words
      + Par_drain.space_headroom
          ?chunk_words:
            (if t.cfg.chunk_words > 0 then Some t.cfg.chunk_words else None)
          ~parallelism:t.cfg.parallelism
          ~copy_bound:(Mem.Space.used_words t.space) ()
    else seq_words
  in
  let to_space = Mem.Space.create t.mem ~words:to_words in
  let copied, promoted_ignored, scanned, sites, steal_counters, reports =
    if par then begin
      let engine =
        Par_drain.create ~mem:t.mem
          ~in_from:(Mem.Space.contains t.space)
          ~to_space ~los:None ~trace_los:false
          ~eager:t.cfg.eager_evac
          ~object_hooks:t.hooks.Hooks.object_hooks
          ~parallelism:t.cfg.parallelism ~mode:t.cfg.parallelism_mode
          ?chunk_words:
            (if t.cfg.chunk_words > 0 then Some t.cfg.chunk_words else None)
          ()
      in
      let batch =
        Rstack.Root.Batch.create ~capacity:32
          ~emit:(Par_drain.add_roots engine)
      in
      Support.Vec.iter (Rstack.Root.Batch.push batch) roots;
      Rstack.Root.Batch.flush batch;
      Par_drain.run engine;
      Array.iteri
        (fun domain words -> Gc_stats.add_scanned t.stats ~domain words)
        (Par_drain.per_worker_scanned engine);
      ( Par_drain.words_copied engine,
        Par_drain.words_promoted engine,
        Par_drain.words_scanned engine,
        Par_drain.site_survivals engine,
        [ ("steals", Par_drain.steals engine) ],
        Par_drain.report engine )
    end
    else begin
      let engine =
        Cheney.create ~mem:t.mem
          ~in_from:(Mem.Space.contains t.space)
          ~to_space ~los:None ~trace_los:false
          ~eager:t.cfg.eager_evac
          ~object_hooks:t.hooks.Hooks.object_hooks ()
      in
      Support.Vec.iter (Cheney.visit_root engine) roots;
      Cheney.drain engine;
      Gc_stats.add_scanned t.stats ~domain:0 (Cheney.words_scanned engine);
      ( Cheney.words_copied engine,
        Cheney.words_promoted engine,
        Cheney.words_scanned engine,
        Cheney.site_survivals engine,
        [],
        [||] )
    end
  in
  ignore (promoted_ignored : int);
  let t2 = now () in
  t.stats.Gc_stats.copy_seconds <- t.stats.Gc_stats.copy_seconds +. (t2 -. t1);
  if traced then begin
    Obs.Trace.phase ~name:"copy"
      ~dur_us:((t2 -. t1) *. 1e6)
      ~counters:
        ([ ("copied_w", copied); ("scanned_w", scanned) ] @ steal_counters);
    Array.iter
      (fun r ->
        Obs.Trace.phase
          ~name:(Printf.sprintf "copy.d%d" r.Par_drain.w_id)
          ~dur_us:(float_of_int r.Par_drain.w_cost_ns /. 1e3)
          ~counters:
            [ ("copied_w", r.Par_drain.w_copied);
              ("scanned_w", r.Par_drain.w_scanned);
              ("packets", r.Par_drain.w_packets);
              ("steals", r.Par_drain.w_steals) ])
      reports;
    List.iter
      (fun (site, objects, first_objects, words) ->
        Obs.Trace.site_survival ~site ~objects ~first_objects ~words)
      sites
  end;
  (match t.hooks.Hooks.object_hooks with
   | None -> ()
   | Some h ->
     Cheney.sweep_dead ~mem:t.mem ~space:t.space ~on_die:h.Hooks.on_die;
     let dt = now () -. t2 in
     t.stats.Gc_stats.profile_seconds <-
       t.stats.Gc_stats.profile_seconds +. dt;
     if traced then
       Obs.Trace.phase ~name:"profile_sweep" ~dur_us:(dt *. 1e6) ~counters:[]);
  Mem.Space.release t.space t.mem;
  t.space <- to_space;
  t.live <- copied;
  t.stats.Gc_stats.words_copied <- t.stats.Gc_stats.words_copied + t.live;
  t.stats.Gc_stats.major_gcs <- t.stats.Gc_stats.major_gcs + 1;
  t.stats.Gc_stats.live_words_after_gc <- t.live;
  t.stats.Gc_stats.max_live_words <- max t.stats.Gc_stats.max_live_words t.live;
  resize t ~need;
  t.hooks.Hooks.after_collection ~full:true;
  if traced then
    Obs.Trace.gc_end ~kind:"semi"
      ~pause_us:((now () -. t0) *. 1e6)
      ~copied_w:t.live ~promoted_w:0 ~live_w:t.live

let collect t = collect_for t ~need:0

let alloc t hdr ~birth =
  let words = Mem.Header.object_words hdr in
  if Mem.Space.used_words t.space + words > t.soft_limit then
    collect_for t ~need:words;
  let base =
    match Mem.Space.alloc t.space words with
    | Some a -> a
    | None ->
      (* the physical grant was too small for this object even though the
         policy allows it: collect into a to-space sized to fit *)
      collect_for t ~need:words;
      (match Mem.Space.alloc t.space words with
       | Some a -> a
       | None -> failwith "Semispace: live data exceeds memory budget")
  in
  Mem.Header.write t.mem base hdr ~birth;
  Mem.Memory.fill t.mem
    ~dst:(Mem.Header.field_addr base 0)
    ~words:hdr.Mem.Header.len Mem.Value.zero;
  t.stats.Gc_stats.words_allocated <- t.stats.Gc_stats.words_allocated + words;
  t.stats.Gc_stats.objects_allocated <- t.stats.Gc_stats.objects_allocated + 1;
  (match hdr.Mem.Header.kind with
   | Mem.Header.Ptr_array | Mem.Header.Nonptr_array ->
     t.stats.Gc_stats.words_alloc_arrays <-
       t.stats.Gc_stats.words_alloc_arrays + words
   | Mem.Header.Record _ ->
     t.stats.Gc_stats.words_alloc_records <-
       t.stats.Gc_stats.words_alloc_records + words);
  if t.alloc_sites <> None then
    note_alloc_site t ~site:hdr.Mem.Header.site ~words;
  base

let stats t = t.stats

let destroy t =
  if Obs.Trace.enabled () then flush_site_allocs t;
  Mem.Space.release t.space t.mem

(** The copying engine (Cheney 1970), shared by the semispace collector,
    nursery evacuation and tenured (major) collection.

    The engine forwards pointers out of a *from* region into a to-space,
    breadth-first via the classic scan-pointer walk.  Pointers that land in
    the large-object space are marked and their fields queued for scanning
    when [trace_los] is on (full collections); minor collections leave
    large objects alone because every large-object → nursery pointer is
    covered by the write barrier.

    When [Obs.Trace] is enabled at engine creation, the engine also
    tallies per-allocation-site survival ({!site_survivals}) for the
    collectors' [site_survival] trace events; untraced engines skip
    that accounting entirely. *)

type t

(** When true (the default), the engine's inner loops run on the raw
    memory API: one block-handle resolution per object and header fields
    decoded from the cells, with no allocation.  When false, every loop
    goes through the safe [Memory.get]/[set] and [Header.read] reference
    implementation.  The two paths are observably identical (values,
    hook calls, statistics); the flag exists for the equivalence tests
    and the [gc_hotpath] benchmarks.  Not meant to be flipped during a
    collection. *)
val use_raw : bool ref

(** Aging-nursery evacuation (Section 7.2's alternative tenuring policy):
    survivors younger than [threshold] are copied into [young_to] with
    their age counter incremented; the rest are promoted into the
    engine's main to-space. *)
type aging = {
  young_to : Mem.Space.t;
  threshold : int;
}

val create :
  mem:Mem.Memory.t ->
  in_from:(Mem.Addr.t -> bool) ->
  to_space:Mem.Space.t ->
  ?aging:aging ->
  ?remember:(loc:Mem.Addr.t -> owner:Mem.Addr.t option -> unit) ->
  ?promote_alloc:(int -> Mem.Addr.t option) ->
  ?eager:bool ->
  ?site_tallies:bool ->
  los:Los.t option ->
  trace_los:bool ->
  object_hooks:Hooks.object_hooks option ->
  unit ->
  t
(** [remember] is called for every heap location (outside the young
    to-space) whose updated value still points into the young to-space:
    under an aging nursery those old-to-young edges must re-enter the
    remembered set or the next minor collection would miss them.
    [owner] is the base of the containing object when the engine knows
    it (object scans), [None] for raw locations (store-buffer entries).
    [promote_alloc], when given, places every promotion through it (an
    {!Alloc.Backend} allocator over [to_space]'s block) instead of
    bumping the to-space frontier — the mark-sweep major's minors, where
    promotions reuse swept holes.  Grants may then land below the
    frontier where the contiguous scan pointer cannot see them, so the
    engine drains promoted copies from an explicit gray queue instead;
    an exhausted allocator is a collector sizing bug and raises.
    [eager] (default false) switches the engine to hierarchical
    evacuation: after each copy, the object's not-yet-forwarded children
    are copied depth-first right behind it (bounded in depth and words;
    docs/LAYOUT.md), so related objects land cache-adjacent.  Placement
    only — field rewriting still happens on the normal scan pass, and
    every [Gc_stats] total is order-insensitive, so eager and
    breadth-first runs are counter-identical. *)

(** [evacuate t v] forwards one value: from-region pointers are copied (or
    resolved through their forwarding pointer); large-object pointers are
    marked/queued; anything else passes through.
    @raise Failure on to-space overflow (a collector sizing bug). *)
val evacuate : t -> Mem.Value.t -> Mem.Value.t

(** [visit_root t root] rewrites a root location in place. *)
val visit_root : t -> Rstack.Root.t -> unit

(** [visit_loc t loc] rewrites one heap location in place. *)
val visit_loc : t -> Mem.Addr.t -> unit

(** [visit_object_fields t base] rewrites every pointer field of the
    object at [base] in place (used for remembered-set objects and the
    pretenured-region scan). *)
val visit_object_fields : t -> Mem.Addr.t -> unit

(** [drain t] runs the scan loop to a fixpoint (to-space objects and
    queued large objects). *)
val drain : t -> unit

(** Words copied by this engine instance (both destinations). *)
val words_copied : t -> int

(** Words copied into the main to-space (promotions under aging). *)
val words_promoted : t -> int

(** Words walked by the [drain] scan loops (to-space objects, young
    to-space objects, queued large objects). *)
val words_scanned : t -> int

(** Per-allocation-site survival tallies as
    [(site, objects, first_objects, words)] sorted by site id, where
    [first_objects] counts the objects surviving their first collection
    (no survivor bit yet).  Populated only when the engine was created
    while fully tracing ([Obs.Trace.detailed]); empty otherwise. *)
val site_survivals : t -> (int * int * int * int) list

(** [sweep_dead ~mem ~space ~on_die] walks a collected from-space and
    reports every object that was not forwarded (used by profiling
    runs to observe deaths).  Chunk-tail fillers left behind by the
    parallel drain ({!Mem.Header.filler_site}) are stepped over without
    reporting. *)
val sweep_dead :
  mem:Mem.Memory.t ->
  space:Mem.Space.t ->
  on_die:(site:int -> birth:int -> words:int -> unit) ->
  unit

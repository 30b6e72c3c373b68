(** The mark-in-place major engine (the paper's Section 2.1 treats the
    large-object space this way; here the whole tenured generation gets
    the same treatment, making the {!Alloc} backends' holes load-bearing).

    Where the copying major evacuates every survivor into a fresh space,
    this engine marks live tenured and large objects where they sit —
    mark bits live in a side bitmap, never in headers — and then sweeps
    dead tenured objects back into the active {!Alloc.Backend} via
    [free], coalescing adjacent corpses into single holes.  Addresses
    are stable across the collection: no forwarding, no barrier reset,
    no backend rebuild.

    Like {!Cheney}, an engine value is per-collection: create it, feed
    it the roots, {!drain} to the mark fixpoint, {!sweep}, drop it.
    The gray set is a LIFO stack of object bases. *)

type t

(** [create ~mem ~tenured ~los ()] is an engine over the given tenured
    space and large-object space with an empty mark bitmap. *)
val create :
  mem:Mem.Memory.t -> tenured:Mem.Space.t -> los:Los.t ->
  ?site_tallies:bool -> unit -> t

(** [visit_root t root] marks the root's referent (tenured or large
    object) and queues it for field scanning.  Roots are read, never
    rewritten — nothing moves. *)
val visit_root : t -> Rstack.Root.t -> unit

(** [mark_value t v] marks a single value's referent, for callers
    holding a {!Mem.Value.t} rather than a root handle. *)
val mark_value : t -> Mem.Value.t -> unit

(** [drain t] runs the mark loop to a fixpoint over the gray set. *)
val drain : t -> unit

(** [sweep t ~backend ~on_die] walks the tenured space linearly and
    returns every unmarked, non-filler object to [backend] via [free];
    adjacent corpses are merged into one hole first.  [on_die] fires
    per corpse before its words are freed (profiler death accounting;
    scalar arguments keep the sweep loop allocation-free).
    Returns the words freed.  Large objects are swept separately by
    {!Los.sweep}, which already reclaims into the LOS backend. *)
val sweep :
  t ->
  backend:Alloc.Backend.packed ->
  on_die:(site:int -> birth:int -> words:int -> unit) ->
  int

(** Marked words, tenured + large objects. *)
val words_marked : t -> int

(** Marked words in the tenured space only (= the space's live words
    after {!sweep}). *)
val words_marked_tenured : t -> int

(** Marked tenured objects. *)
val objects_marked : t -> int

(** Words walked by the {!drain} scan loop. *)
val words_scanned : t -> int

(** Per-site mark tallies [(site, objects, first_objects, words)] sorted
    by site id — the mark-phase analogue of {!Cheney.site_survivals},
    populated only when the engine was created while tracing.  Tenured
    objects only; large-object survival is not site-tallied, matching
    the copy engines. *)
val site_survivals : t -> (int * int * int * int) list

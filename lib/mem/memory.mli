(** The simulated physical memory: a growable set of blocks of words.

    Collectors obtain blocks (for semispaces, the nursery, the tenured
    area, large objects), address them through {!Addr}, and release them
    when a space dies.  All loads and stores are bounds-checked; touching a
    freed block is detected immediately. *)

type t

val create : unit -> t

(** [alloc_block t ~words] reserves a fresh zeroed block and returns its
    base address (offset 0).  @raise Invalid_argument if [words <= 0]. *)
val alloc_block : t -> words:int -> Addr.t

(** [free_block t base] releases the block containing [base].
    @raise Invalid_argument if already freed or unknown. *)
val free_block : t -> Addr.t -> unit

(** [block_words t addr] is the size of the block containing [addr]. *)
val block_words : t -> Addr.t -> int

(** [live_block t addr] is [true] when the block containing [addr] is still
    allocated. *)
val live_block : t -> Addr.t -> bool

val get : t -> Addr.t -> Value.t
val set : t -> Addr.t -> Value.t -> unit

(** [cells t addr] is the backing cell array of the block containing
    [addr]: a per-block handle that lets an object scan (or a runtime
    field access) resolve its block once instead of per word.  Cells are
    indexed by {!Addr.offset}; out-of-block indexes raise through the
    array bounds check (with a generic message).  The handle stays valid
    until the block is freed; a stale handle silently aliases nothing
    (the array is unreachable from [t] after the free), so holders must
    not outlive the block — collectors drop their handles at the end of each collection.
    @raise Invalid_argument on a freed or unknown block. *)
val cells : t -> Addr.t -> Value.t array

(** [blit t ~src ~dst ~words] copies [words] words; source and destination
    may live in different blocks but must not overlap within one block. *)
val blit : t -> src:Addr.t -> dst:Addr.t -> words:int -> unit

(** [fill t ~dst ~words v] stores [v] into [words] consecutive cells. *)
val fill : t -> dst:Addr.t -> words:int -> Value.t -> unit

(** Total words across currently-allocated blocks (for budget sanity
    checks in tests). *)
val allocated_words : t -> int

(** Bytes per simulated word; every byte figure reported by the system is
    [words * bytes_per_word]. *)
val bytes_per_word : int

(** The concurrent Chase-Lev work-stealing deque (Chase & Lev,
    SPAA 2005) holding {!Par_drain}'s work packets under both drivers.

    The owner pushes and pops packets LIFO at the bottom (depth first
    keeps the copy buffers warm); thieves steal FIFO from the top
    (breadth first hands thieves the oldest, typically largest,
    subtrees).  The indices are OCaml [Atomic]s and [steal]/the
    last-element [pop] claim elements with a real compare-and-swap, so
    the structure is safe under true domain concurrency: every pushed
    element is taken exactly once, whatever the interleaving.  On a
    single domain every claim succeeds, so the virtual-time scheduler
    sees a deterministic LIFO/FIFO buffer.

    Concurrency contract: {b one} owner may call {!push}/{!pop}; any
    number of other domains may call {!steal} concurrently.  {!length}
    and {!is_empty} are racy snapshots, fit only for heuristics (the
    drain's termination detector re-checks through the claiming
    operations). *)

type 'a t

(** Assertion switch for the parallel drain's claim discipline: when
    true, a steal that claims an empty slot and a forwarding claim lost
    inside an atomic virtual turn raise [Invalid_argument] instead of
    corrupting the drain.  Defaults to true when the [GSC_DEQUE_CHECKS]
    environment variable, read once at module initialisation, is set to
    a non-empty, non-"0" value (the strict test reruns set it). *)
val checks : bool ref

(** An empty deque.  There is no [owner] id: ownership is by calling
    convention (checked structurally by the stress tests rather than by
    identity assertions, which a true concurrent steal cannot carry). *)
val create : unit -> 'a t

(** Racy size snapshot (never negative). *)
val length : 'a t -> int

(** Racy emptiness snapshot. *)
val is_empty : 'a t -> bool

(** Owner only: append at the bottom. *)
val push : 'a t -> 'a -> unit

(** Owner only: take the newest element, racing thieves for the last
    one. *)
val pop : 'a t -> 'a option

(** Thieves: claim the oldest element via CAS on the top index.  [None]
    means empty {e or} lost the race — callers treat both as "try
    another victim". *)
val steal : 'a t -> 'a option

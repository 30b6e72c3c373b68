(** One activation record.

    A frame carries the trace-table key that plays the role of its return
    address, its slot contents, and the stack-marker state: when the
    collector marks a frame it conceptually swaps the return address for a
    stub; we model that with the [marked] flag.  The [serial] is a
    monotonically increasing birth stamp used to count frames that are new
    since the previous collection (Table 2's "New Frames in Stack") and to
    sanity-check scan-cache reuse. *)

type t = {
  key : int;                   (** trace-table key ("return address") *)
  slots : Mem.Value.t array;
  serial : int;
  mutable marked : bool;       (** a stack-marker stub is installed *)
}

(** [create ~key ~size ~serial] makes a frame with every slot
    [Value.zero]. *)
val create : key:int -> size:int -> serial:int -> t

val get : t -> int -> Mem.Value.t
val set : t -> int -> Mem.Value.t -> unit
val size : t -> int

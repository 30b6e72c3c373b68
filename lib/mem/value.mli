(** Simulated machine words.

    TIL is nearly tag-free: an integer is a raw word and a pointer is a raw
    word; only the trace tables and object headers tell them apart.  The
    simulation keeps one low tag bit in every word so that collector
    invariants (e.g. "this root really is a pointer") can be checked at
    every step, which a raw-word runtime cannot do:

    - an integer [n] is the host int [(n lsl 1) lor 1], so its payload is
      62 bits wide;
    - a pointer [a] is [Addr.encode_raw a lsl 1]; the null address (-1)
      encodes like any other.

    [t] is that host int itself: stack slots, registers, globals and heap
    cells ({!Memory.cells}) all hold the same unboxed word, so no load or
    store allocates. *)

type t [@@immediate]

(** [of_int n] is the integer word for [n].
    @raise Invalid_argument if [n] does not fit the 62-bit payload
    ([-2{^61} <= n < 2{^61}]); the word never wraps silently. *)
val of_int : int -> t

(** [of_addr a] is the pointer word for [a] ([of_addr Addr.null] is
    {!null}). *)
val of_addr : Addr.t -> t

(** The null pointer. *)
val null : t

(** [zero] is [of_int 0], the default content of fresh memory. *)
val zero : t

(** [is_int w] iff [w] is an integer word. *)
val is_int : t -> bool

(** [is_ptr w] iff [w] is a non-null pointer. *)
val is_ptr : t -> bool

(** [is_null w] iff [w] is {!null}.  A word is exactly one of an integer,
    null, or a non-null pointer. *)
val is_null : t -> bool

(** [to_int w] extracts an integer. @raise Invalid_argument on pointers
    (null included). *)
val to_int : t -> int

(** [to_addr w] extracts a (non-null) address.
    @raise Invalid_argument if [w] is an integer or the null pointer. *)
val to_addr : t -> Addr.t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

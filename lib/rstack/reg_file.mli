(** The simulated general-purpose register file. *)

type t

val create : unit -> t

(** [get t r] / [set t r v] access register [r].
    @raise Invalid_argument unless [0 <= r < Trace.num_registers]. *)
val get : t -> int -> Mem.Value.t

val set : t -> int -> Mem.Value.t -> unit

(** [clear t] resets every register to [Value.zero] (e.g. between workload
    runs). *)
val clear : t -> unit

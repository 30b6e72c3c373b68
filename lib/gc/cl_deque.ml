(* The concurrent Chase-Lev deque (Chase & Lev, SPAA 2005) behind both
   of [Par_drain]'s drivers, run on OCaml [Atomic]s — which are
   sequentially consistent, so the classic proof carries over without
   the C11 fence subtleties:

   - [bottom] is written only by the owner; the [Atomic.set] in [push]
     publishes the freshly written slot to thieves.
   - [top] only ever advances, and only through a compare-and-swap —
     either a thief's [steal] or the owner's last-element race in
     [pop].  Winning the CAS on index [i] is the unique claim on the
     element at [i]; a stale reader's CAS necessarily fails because
     [top] already moved past its snapshot.
   - The slot array is read without synchronisation (the algorithm's
     one data race).  That is sound here because a slot's value is only
     trusted after the claiming CAS succeeds, and OCaml's memory model
     makes the racy read return *some* previously written value, never
     a torn word.
   - [grow] is owner-only: it copies the live window into a doubled
     array and publishes it with an [Atomic.set]; thieves holding the
     old array still validate through [top], and the old array retains
     its (now stale but harmless) contents.

   Packets are only pushed by the deque's owner during a drain, so there
   is no concurrent-push case to handle.  On one domain (the virtual
   scheduler) every CAS succeeds and the deque is a plain LIFO-bottom /
   FIFO-top buffer. *)

(* The [GSC_DEQUE_CHECKS] environment lookup happens exactly once, at
   module initialisation: the flag guards assertions on the drain's hot
   paths, and a [Sys.getenv_opt] per operation would be a syscall-shaped
   cost inside the drain loop.  Tests that need the checks for one scope
   flip the ref and restore it ([with_deque_checks] in test_gc.ml); the
   cached environment value is only the startup default. *)
let checks =
  ref
    (match Sys.getenv_opt "GSC_DEQUE_CHECKS" with
     | Some ("" | "0") | None -> false
     | Some _ -> true)

type 'a t = {
  top : int Atomic.t;
  bottom : int Atomic.t;
  buf : 'a option array Atomic.t;
}

let create () =
  { top = Atomic.make 0;
    bottom = Atomic.make 0;
    buf = Atomic.make (Array.make 16 None) }

let length q =
  let b = Atomic.get q.bottom and t = Atomic.get q.top in
  max 0 (b - t)

let is_empty q = length q = 0

(* owner-only; called from [push] with the owner's current window *)
let grow q ~top:t ~bottom:b old =
  let old_cap = Array.length old in
  let buf = Array.make (2 * old_cap) None in
  for i = t to b - 1 do
    buf.(i land ((2 * old_cap) - 1)) <- old.(i land (old_cap - 1))
  done;
  Atomic.set q.buf buf;
  buf

let push q x =
  let b = Atomic.get q.bottom in
  let t = Atomic.get q.top in
  let a = Atomic.get q.buf in
  let a = if b - t >= Array.length a then grow q ~top:t ~bottom:b a else a in
  a.(b land (Array.length a - 1)) <- Some x;
  Atomic.set q.bottom (b + 1)

let pop q =
  let b = Atomic.get q.bottom - 1 in
  Atomic.set q.bottom b;
  let t = Atomic.get q.top in
  if b < t then begin
    (* already empty; undo the reservation *)
    Atomic.set q.bottom t;
    None
  end
  else begin
    let a = Atomic.get q.buf in
    let s = b land (Array.length a - 1) in
    let x = a.(s) in
    if b > t then begin
      (* more than one element: the bottom end is uncontended *)
      a.(s) <- None;
      x
    end
    else begin
      (* last element: race the thieves for it through [top] *)
      let won = Atomic.compare_and_set q.top t (t + 1) in
      Atomic.set q.bottom (t + 1);
      if won then begin
        a.(s) <- None;
        x
      end
      else None
    end
  end

let steal q =
  let t = Atomic.get q.top in
  let b = Atomic.get q.bottom in
  if t >= b then None
  else begin
    let a = Atomic.get q.buf in
    let x = a.(t land (Array.length a - 1)) in
    (* the CAS is the claim: only its winner may trust [x] *)
    if Atomic.compare_and_set q.top t (t + 1) then begin
      (if !checks && x = None then
         invalid_arg "Cl_deque.steal: claimed an empty slot");
      x
    end
    else None
  end

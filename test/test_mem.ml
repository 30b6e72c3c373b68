(* Unit and property tests for the memory substrate: addresses, value
   encoding, headers, blocks and spaces. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Addr --- *)

let addr_pack_unpack () =
  let a = Mem.Addr.make ~block:7 ~offset:123 in
  check_int "block" 7 (Mem.Addr.block a);
  check_int "offset" 123 (Mem.Addr.offset a);
  let b = Mem.Addr.add a 10 in
  check_int "add offset" 133 (Mem.Addr.offset b);
  check_int "add block" 7 (Mem.Addr.block b);
  check_int "diff" 10 (Mem.Addr.diff b a)

let addr_null () =
  check_bool "null is null" true (Mem.Addr.is_null Mem.Addr.null);
  check_bool "normal not null" false
    (Mem.Addr.is_null (Mem.Addr.make ~block:0 ~offset:0))

let addr_add_high_block () =
  (* [add] must keep the block bits intact (it reuses the already-masked
     bits rather than re-shifting); [unsafe_add] must agree on every
     in-range step *)
  let a = Mem.Addr.make ~block:123456 ~offset:789 in
  let b = Mem.Addr.add a 10 in
  check_int "block kept" 123456 (Mem.Addr.block b);
  check_int "offset" 799 (Mem.Addr.offset b);
  List.iter
    (fun n ->
      check_bool
        (Printf.sprintf "unsafe_add agrees at %d" n)
        true
        (Mem.Addr.equal (Mem.Addr.add a n) (Mem.Addr.unsafe_add a n)))
    [ 0; 1; 10; 1000; -1; -789 ]

let addr_invalid () =
  Alcotest.check_raises "negative block" (Invalid_argument "Addr.make: negative block")
    (fun () -> ignore (Mem.Addr.make ~block:(-1) ~offset:0));
  Alcotest.check_raises "cross-block diff"
    (Invalid_argument "Addr.diff: different blocks") (fun () ->
      ignore
        (Mem.Addr.diff
           (Mem.Addr.make ~block:0 ~offset:0)
           (Mem.Addr.make ~block:1 ~offset:0)))

(* --- Value words --- *)

let payload_min = -(1 lsl 61)
let payload_max = (1 lsl 61) - 1

(* a word is exactly one of: integer, null, non-null pointer *)
let one_class v =
  List.length
    (List.filter Fun.id
       [ Mem.Value.is_int v; Mem.Value.is_null v; Mem.Value.is_ptr v ])
  = 1

let value_int_roundtrip_prop =
  QCheck.Test.make ~name:"value of_int/to_int roundtrip" ~count:500
    QCheck.(
      oneof
        [ int_range (-1000000000) 1000000000;
          int_range payload_min payload_max;
          oneofl [ payload_min; payload_max; 0; -1 ] ])
    (fun n ->
      let v = Mem.Value.of_int n in
      Mem.Value.to_int v = n && Mem.Value.is_int v && one_class v)

let value_addr_roundtrip_prop =
  QCheck.Test.make ~name:"value of_addr/to_addr roundtrip" ~count:500
    QCheck.(pair (int_range 0 1000) (int_range 0 100000))
    (fun (b, o) ->
      let a = Mem.Addr.make ~block:b ~offset:o in
      let v = Mem.Value.of_addr a in
      Mem.Addr.equal (Mem.Value.to_addr v) a && Mem.Value.is_ptr v && one_class v)

let value_null_roundtrip () =
  check_bool "null is of_addr null" true
    (Mem.Value.equal Mem.Value.null (Mem.Value.of_addr Mem.Addr.null));
  check_bool "null classifies as null only" true
    (Mem.Value.is_null Mem.Value.null && one_class Mem.Value.null);
  Alcotest.check_raises "null has no address"
    (Invalid_argument "Value.to_addr: null pointer") (fun () ->
      ignore (Mem.Value.to_addr Mem.Value.null));
  Alcotest.check_raises "null is no integer"
    (Invalid_argument "Value.to_int: pointer") (fun () ->
      ignore (Mem.Value.to_int Mem.Value.null))

let value_of_int_range () =
  let outside = Invalid_argument "Value.of_int: integer outside the 62-bit payload" in
  List.iter
    (fun n ->
      Alcotest.check_raises (Printf.sprintf "of_int %d" n) outside (fun () ->
        ignore (Mem.Value.of_int n)))
    [ payload_max + 1; payload_min - 1; max_int; min_int ];
  check_int "max payload kept" payload_max
    (Mem.Value.to_int (Mem.Value.of_int payload_max));
  check_int "min payload kept" payload_min
    (Mem.Value.to_int (Mem.Value.of_int payload_min));
  Alcotest.check_raises "integer has no address"
    (Invalid_argument "Value.to_addr: integer") (fun () ->
      ignore (Mem.Value.to_addr (Mem.Value.of_int 3)))

(* --- Memory --- *)

let memory_basic () =
  let mem = Mem.Memory.create () in
  let a = Mem.Memory.alloc_block mem ~words:16 in
  check_int "fresh block zeroed" 0
    (Mem.Value.to_int (Mem.Memory.get mem a));
  Mem.Memory.set mem (Mem.Addr.add a 3) (Mem.Value.of_int 99);
  check_int "set/get" 99 (Mem.Value.to_int (Mem.Memory.get mem (Mem.Addr.add a 3)));
  check_int "allocated words" 16 (Mem.Memory.allocated_words mem);
  Mem.Memory.free_block mem a;
  check_int "freed words" 0 (Mem.Memory.allocated_words mem);
  check_bool "dead block" false (Mem.Memory.live_block mem a)

let memory_freed_access () =
  let mem = Mem.Memory.create () in
  let a = Mem.Memory.alloc_block mem ~words:4 in
  Mem.Memory.free_block mem a;
  match Mem.Memory.get mem a with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let memory_block_reuse () =
  let mem = Mem.Memory.create () in
  let a = Mem.Memory.alloc_block mem ~words:8 in
  let id_a = Mem.Addr.block a in
  Mem.Memory.free_block mem a;
  let b = Mem.Memory.alloc_block mem ~words:4 in
  check_int "block id reused" id_a (Mem.Addr.block b);
  check_bool "reused block live" true (Mem.Memory.live_block mem b);
  (* reused blocks are re-zeroed *)
  check_int "reused zeroed" 0 (Mem.Value.to_int (Mem.Memory.get mem b))

let memory_blit () =
  let mem = Mem.Memory.create () in
  let a = Mem.Memory.alloc_block mem ~words:8 in
  let b = Mem.Memory.alloc_block mem ~words:8 in
  for i = 0 to 7 do
    Mem.Memory.set mem (Mem.Addr.add a i) (Mem.Value.of_int (i * i))
  done;
  Mem.Memory.blit mem ~src:a ~dst:b ~words:8;
  check_int "blit copied" 49 (Mem.Value.to_int (Mem.Memory.get mem (Mem.Addr.add b 7)))

(* --- Cell handles vs safe API --- *)

let memory_cells_handle () =
  let mem = Mem.Memory.create () in
  let a = Mem.Memory.alloc_block mem ~words:8 in
  Mem.Memory.set mem (Mem.Addr.add a 3) (Mem.Value.of_int 12);
  let cells = Mem.Memory.cells mem a in
  check_int "handle sees safe write" 12 (Mem.Value.to_int cells.(3));
  cells.(4) <- Mem.Value.of_int 7;
  check_int "safe read sees handle write" 7
    (Mem.Value.to_int (Mem.Memory.get mem (Mem.Addr.add a 4)));
  check_bool "one handle per block" true
    (Mem.Memory.cells mem (Mem.Addr.add a 5) == cells);
  Mem.Memory.free_block mem a;
  (match Mem.Memory.cells mem a with
   | _ -> Alcotest.fail "expected Invalid_argument on freed block"
   | exception Invalid_argument _ -> ())

(* drive one memory through the safe API and a twin through its block
   handles with the same randomized operations; the heaps must stay
   identical under both read APIs *)
let raw_safe_agreement_prop =
  QCheck.Test.make ~name:"raw API agrees with safe get/set/blit" ~count:200
    QCheck.(pair (int_range 2 64) (int_range 0 1000000))
    (fun (words, seed) ->
      let prng = Support.Prng.create ~seed in
      let mem_s = Mem.Memory.create () in
      let mem_r = Mem.Memory.create () in
      let mk m = (Mem.Memory.alloc_block m ~words, Mem.Memory.alloc_block m ~words) in
      let a_s, b_s = mk mem_s in
      let a_r, b_r = mk mem_r in
      let rand_value () =
        match Support.Prng.int prng 4 with
        | 0 -> Mem.Value.null
        | 1 | 2 -> Mem.Value.of_int (Support.Prng.int prng 1000000 - 500000)
        | _ ->
          Mem.Value.of_addr
            (Mem.Addr.make
               ~block:(Support.Prng.int prng 100)
               ~offset:(Support.Prng.int prng 10000))
      in
      for _ = 1 to 40 do
        match Support.Prng.int prng 3 with
        | 0 ->
          (* store: safe set vs a store through the handle *)
          let off = Support.Prng.int prng words in
          let v = rand_value () in
          Mem.Memory.set mem_s (Mem.Addr.add a_s off) v;
          (Mem.Memory.cells mem_r a_r).(off) <- v
        | 1 ->
          let off = Support.Prng.int prng words in
          let v = rand_value () in
          Mem.Memory.set mem_s (Mem.Addr.add b_s off) v;
          (Mem.Memory.cells mem_r b_r).(off) <- v
        | _ ->
          (* blit a -> b: safe blit vs Array.blit on the block handles *)
          let len = 1 + Support.Prng.int prng (words - 1) in
          let soff = Support.Prng.int prng (words - len + 1) in
          let doff = Support.Prng.int prng (words - len + 1) in
          Mem.Memory.blit mem_s
            ~src:(Mem.Addr.add a_s soff)
            ~dst:(Mem.Addr.add b_s doff)
            ~words:len;
          Array.blit
            (Mem.Memory.cells mem_r a_r) soff
            (Mem.Memory.cells mem_r b_r) doff len
      done;
      let agree base_s base_r =
        let ok = ref true in
        for off = 0 to words - 1 do
          let s = Mem.Memory.get mem_s (Mem.Addr.add base_s off) in
          let r = (Mem.Memory.cells mem_r base_r).(off) in
          ok := !ok
                && Mem.Value.equal s r
                && Mem.Value.equal (Mem.Memory.get mem_r (Mem.Addr.add base_r off)) r
        done;
        !ok
      in
      agree a_s a_r && agree b_s b_r)

(* --- Header --- *)

let mem_with_block words =
  let mem = Mem.Memory.create () in
  (mem, Mem.Memory.alloc_block mem ~words)

let header_roundtrip () =
  let mem, a = mem_with_block 64 in
  let hdr = { Mem.Header.kind = Mem.Header.Record { mask = 0b101 }; len = 3; site = 42 } in
  Mem.Header.write mem a hdr ~birth:1234;
  let hdr' = Mem.Header.read mem a in
  check_bool "kind+mask" true (hdr' = hdr);
  check_int "birth" 1234 (Mem.Header.birth mem a);
  check_bool "ptr field 0" true (Mem.Header.is_pointer_field hdr' 0);
  check_bool "nonptr field 1" false (Mem.Header.is_pointer_field hdr' 1);
  check_bool "ptr field 2" true (Mem.Header.is_pointer_field hdr' 2)

let header_arrays () =
  let mem, a = mem_with_block 64 in
  Mem.Header.write mem a
    { Mem.Header.kind = Mem.Header.Ptr_array; len = 10; site = 7 } ~birth:0;
  let hdr = Mem.Header.read mem a in
  check_bool "ptr array traces all" true (Mem.Header.is_pointer_field hdr 9);
  check_int "object words" 13 (Mem.Header.object_words hdr);
  Mem.Header.write mem a
    { Mem.Header.kind = Mem.Header.Nonptr_array; len = 5; site = 8 } ~birth:0;
  let hdr = Mem.Header.read mem a in
  check_bool "nonptr array traces none" false (Mem.Header.is_pointer_field hdr 0)

let header_forwarding () =
  let mem, a = mem_with_block 64 in
  let target = Mem.Addr.add a 32 in
  Mem.Header.write mem a
    { Mem.Header.kind = Mem.Header.Record { mask = 1 }; len = 2; site = 3 }
    ~birth:0;
  check_bool "not forwarded" true (Mem.Header.forwarded mem a = None);
  let before = Mem.Header.object_words_at mem a in
  Mem.Header.set_forward mem a ~target;
  check_bool "forwarded" true (Mem.Header.forwarded mem a = Some target);
  check_int "size preserved for sweeps" before (Mem.Header.object_words_at mem a);
  Alcotest.check_raises "read forwarded"
    (Invalid_argument "Header.read: forwarded object") (fun () ->
      ignore (Mem.Header.read mem a))

let header_survivor_bit () =
  let mem, a = mem_with_block 64 in
  Mem.Header.write mem a
    { Mem.Header.kind = Mem.Header.Record { mask = 0 }; len = 1; site = 0 }
    ~birth:5;
  check_bool "fresh object not survivor" false (Mem.Header.survivor mem a);
  Mem.Header.set_survivor mem a;
  check_bool "survivor set" true (Mem.Header.survivor mem a);
  (* the bit must not disturb the rest of the header *)
  let hdr = Mem.Header.read mem a in
  check_int "len intact" 1 hdr.Mem.Header.len;
  check_int "site intact" 0 hdr.Mem.Header.site;
  check_int "birth intact" 5 (Mem.Header.birth mem a)

let header_validation () =
  let mem, a = mem_with_block 64 in
  Alcotest.check_raises "mask wider than record"
    (Invalid_argument "Header: mask wider than record") (fun () ->
      Mem.Header.write mem a
        { Mem.Header.kind = Mem.Header.Record { mask = 0b111 }; len = 2; site = 0 }
        ~birth:0)

let header_prop =
  QCheck.Test.make ~name:"header roundtrip (random)" ~count:300
    QCheck.(
      triple (int_range 0 (Mem.Header.max_record_fields ())) (int_range 0 100000)
        (int_range 0 10))
    (fun (len, site, kind_sel) ->
      let mem, a = mem_with_block 64 in
      let kind =
        if kind_sel < 4 then
          Mem.Header.Record { mask = (1 lsl len) - 1 }
        else if kind_sel < 7 then Mem.Header.Ptr_array
        else Mem.Header.Nonptr_array
      in
      let hdr = { Mem.Header.kind; len; site } in
      Mem.Header.write mem a hdr ~birth:len;
      Mem.Header.read mem a = hdr
      && Mem.Header.birth mem a = len
      && Mem.Header.object_words_at mem a = Mem.Header.object_words hdr)

let header_cells_prop =
  QCheck.Test.make ~name:"header cell accessors agree with safe reads"
    ~count:300
    QCheck.(
      triple (int_range 0 (Mem.Header.max_record_fields ())) (int_range 0 100000)
        (int_range 0 10))
    (fun (len, site, kind_sel) ->
      let mem, a = mem_with_block 64 in
      let kind =
        if kind_sel < 4 then Mem.Header.Record { mask = (1 lsl len) - 1 }
        else if kind_sel < 7 then Mem.Header.Ptr_array
        else Mem.Header.Nonptr_array
      in
      let hdr = { Mem.Header.kind; len; site } in
      Mem.Header.write mem a hdr ~birth:77;
      let cells = Mem.Memory.cells mem a in
      let off = Mem.Addr.offset a in
      let age = kind_sel mod (Mem.Header.max_age + 1) in
      Mem.Header.set_age mem a age;
      Mem.Header.set_survivor_c cells ~off;
      let target = Mem.Addr.add a 32 in
      Mem.Header.read_c cells ~off = hdr
      && Mem.Header.len_c cells ~off = len
      && Mem.Header.site_c cells ~off = site
      && Mem.Header.birth_c cells ~off = 77
      && Mem.Header.object_words_c cells ~off = Mem.Header.object_words hdr
      && Mem.Header.age_c cells ~off = age
      && Mem.Header.survivor mem a (* set through the raw API above *)
      && (not (Mem.Header.is_forwarded_c cells ~off))
      && begin
        (* forward through the raw API, observe through the safe one *)
        Mem.Header.set_forward_c cells ~off ~target;
        Mem.Header.forwarded mem a = Some target
        && Mem.Header.is_forwarded_c cells ~off
        && Mem.Header.forward_target_c cells ~off = target
        && Mem.Header.object_words_c cells ~off = Mem.Header.object_words hdr
      end)

(* --- packed layout --- *)

let with_packed ?(birth = false) f =
  Mem.Header.set_layout ~birth Mem.Header.Packed;
  Fun.protect ~finally:(fun () -> Mem.Header.set_layout Mem.Header.Classic) f

(* Exhaustive-range encode/decode over the packed single-word layout:
   every field at its extremes, the forwarding overwrite, and a
   snapshot-restore (rollback) of the meta word, which must bring the
   whole header back bit-for-bit. *)
let packed_roundtrip_prop =
  QCheck.Test.make ~name:"packed layout roundtrip (full ranges)" ~count:500
    QCheck.(
      quad (int_range 0 10)
        (int_range 0 Mem.Header.max_site)
        (int_range 0 ((1 lsl 36) - 1))
        (int_range 0 Mem.Header.max_age))
    (fun (kind_sel, site, big_len, age) ->
      with_packed @@ fun () ->
      let mem, a = mem_with_block 64 in
      let kind, len =
        if kind_sel < 4 then
          let len = big_len mod (Mem.Header.max_record_fields () + 1) in
          (Mem.Header.Record { mask = (1 lsl len) - 1 }, len)
        else if kind_sel < 7 then (Mem.Header.Ptr_array, big_len)
        else (Mem.Header.Nonptr_array, big_len)
      in
      let hdr = { Mem.Header.kind; len; site } in
      (* header only: the (possibly huge) payload is never touched *)
      Mem.Header.write mem a hdr ~birth:9999;
      let cells = Mem.Memory.cells mem a in
      let off = Mem.Addr.offset a in
      Mem.Header.set_age mem a age;
      Mem.Header.set_survivor_c cells ~off;
      let decoded_ok () =
        Mem.Header.read_c cells ~off = hdr
        && Mem.Header.len_c cells ~off = len
        && Mem.Header.site_c cells ~off = site
        && Mem.Header.age_c cells ~off = age
        && Mem.Header.survivor_c cells ~off
        && Mem.Header.birth_c cells ~off = 0 (* no birth word in this mode *)
        && Mem.Header.object_words_c cells ~off
           = (Mem.Header.header_words ()) + len
        && not (Mem.Header.is_forwarded_c cells ~off)
      in
      let before = decoded_ok () in
      (* forwarding overwrites the single meta word but keeps the
         corpse walkable; a snapshot-restore must roll everything
         back, survivor and age included *)
      let fits_fwd = len < 1 lsl 20 in
      let after_fwd, after_rollback =
        if not fits_fwd then (true, true)
        else begin
          let snapshot = cells.(off) in
          let target = Mem.Addr.add a 32 in
          Mem.Header.set_forward_c cells ~off ~target;
          let f =
            Mem.Header.is_forwarded_c cells ~off
            && Mem.Header.forward_target_c cells ~off = target
            && Mem.Header.len_c cells ~off = len
            && Mem.Header.object_words_c cells ~off
               = (Mem.Header.header_words ()) + len
          in
          cells.(off) <- snapshot;
          (f, decoded_ok ())
        end
      in
      before && after_fwd && after_rollback)

(* The optional second word: present only when the layout is installed
   with [birth:true] (tracing/profiling on). *)
let packed_birth_word () =
  with_packed ~birth:true @@ fun () ->
  check_int "two header words" 2 (Mem.Header.header_words ());
  check_bool "birth word present" true (Mem.Header.has_birth_word ());
  let mem, a = mem_with_block 64 in
  let hdr =
    { Mem.Header.kind = Mem.Header.Record { mask = 0b10 }; len = 2; site = 5 }
  in
  Mem.Header.write mem a hdr ~birth:4321;
  check_int "birth survives" 4321 (Mem.Header.birth mem a);
  check_bool "decode intact" true (Mem.Header.read mem a = hdr);
  (* forwarding only claims the meta word; birth survives for sweeps *)
  Mem.Header.set_forward mem a ~target:(Mem.Addr.add a 32);
  let cells = Mem.Memory.cells mem a in
  check_int "birth survives forwarding" 4321
    (Mem.Header.birth_c cells ~off:(Mem.Addr.offset a))

let packed_caps () =
  with_packed @@ fun () ->
  check_int "one header word" 1 (Mem.Header.header_words ());
  check_int "record cap" 30 (Mem.Header.max_record_fields ());
  let mem, a = mem_with_block 64 in
  Alcotest.check_raises "record wider than packed cap"
    (Invalid_argument "Header: record too large") (fun () ->
      Mem.Header.write mem a
        { Mem.Header.kind = Mem.Header.Record { mask = 0 }; len = 31; site = 0 }
        ~birth:0)

(* --- Space --- *)

let space_bump () =
  let mem = Mem.Memory.create () in
  let sp = Mem.Space.create mem ~words:32 in
  check_int "fresh used" 0 (Mem.Space.used_words sp);
  (match Mem.Space.alloc sp 10 with
   | Some a -> check_bool "contains grant" true (Mem.Space.contains sp a)
   | None -> Alcotest.fail "alloc failed");
  check_int "used" 10 (Mem.Space.used_words sp);
  check_int "free" 22 (Mem.Space.free_words sp);
  (match Mem.Space.alloc sp 23 with
   | Some _ -> Alcotest.fail "overcommit"
   | None -> ());
  Mem.Space.reset sp;
  check_int "reset" 0 (Mem.Space.used_words sp)

let space_iter_objects () =
  let mem = Mem.Memory.create () in
  let sp = Mem.Space.create mem ~words:64 in
  let alloc_obj len =
    match Mem.Space.alloc sp ((Mem.Header.header_words ()) + len) with
    | Some a ->
      Mem.Header.write mem a
        { Mem.Header.kind = Mem.Header.Nonptr_array; len; site = 0 } ~birth:0;
      a
    | None -> Alcotest.fail "space full"
  in
  let a1 = alloc_obj 2 and a2 = alloc_obj 5 and a3 = alloc_obj 0 in
  let seen = ref [] in
  Mem.Space.iter_objects sp mem (fun a -> seen := a :: !seen);
  Alcotest.(check (list string))
    "walk order"
    (List.map Mem.Addr.to_string [ a1; a2; a3 ])
    (List.rev_map Mem.Addr.to_string !seen)

let () =
  Alcotest.run "mem"
    [ ( "addr",
        [ Alcotest.test_case "pack/unpack" `Quick addr_pack_unpack;
          Alcotest.test_case "null" `Quick addr_null;
          Alcotest.test_case "add keeps high block bits" `Quick
            addr_add_high_block;
          Alcotest.test_case "invalid" `Quick addr_invalid ] );
      ( "value",
        [ QCheck_alcotest.to_alcotest value_int_roundtrip_prop;
          QCheck_alcotest.to_alcotest value_addr_roundtrip_prop;
          Alcotest.test_case "null roundtrip" `Quick value_null_roundtrip;
          Alcotest.test_case "of_int range" `Quick value_of_int_range ] );
      ( "memory",
        [ Alcotest.test_case "basic" `Quick memory_basic;
          Alcotest.test_case "freed access" `Quick memory_freed_access;
          Alcotest.test_case "block reuse" `Quick memory_block_reuse;
          Alcotest.test_case "blit" `Quick memory_blit;
          Alcotest.test_case "cells handle" `Quick memory_cells_handle;
          QCheck_alcotest.to_alcotest raw_safe_agreement_prop ] );
      ( "packed",
        [ QCheck_alcotest.to_alcotest packed_roundtrip_prop;
          Alcotest.test_case "birth word presence" `Quick packed_birth_word;
          Alcotest.test_case "caps" `Quick packed_caps ] );
      ( "header",
        [ Alcotest.test_case "roundtrip" `Quick header_roundtrip;
          Alcotest.test_case "arrays" `Quick header_arrays;
          Alcotest.test_case "forwarding" `Quick header_forwarding;
          Alcotest.test_case "survivor bit" `Quick header_survivor_bit;
          Alcotest.test_case "validation" `Quick header_validation;
          QCheck_alcotest.to_alcotest header_prop;
          QCheck_alcotest.to_alcotest header_cells_prop ] );
      ( "space",
        [ Alcotest.test_case "bump" `Quick space_bump;
          Alcotest.test_case "iter objects" `Quick space_iter_objects ] ) ]

(* Runtime façade tests: operand typing, rooting through collections
   (slots, registers, globals, callee-save spills, compute traces),
   simulated exceptions — plus a randomized "torture" property: random
   mutator programs must compute identical results under every collector
   configuration, with the heap verified after every collection. *)

module R = Gsc.Runtime
module T = Rstack.Trace
module V = Mem.Value

let check_int = Alcotest.(check int)

let budget = 256 * 1024

let mk ?(cfg = Gsc.Config.generational ~budget_bytes:budget) () = R.create cfg

let with_rt ?cfg f =
  let rt = mk ?cfg () in
  Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () -> f rt

(* --- operand typing --- *)

let operand_typing () =
  with_rt @@ fun rt ->
  let site = R.register_site rt ~name:"s" in
  let key = R.register_frame rt ~name:"f" ~slots:(Workloads.Dsl.slots "pi") in
  R.call rt ~key ~args:[] (fun () ->
    (* P field must not take an integer *)
    (match R.alloc_record rt ~site ~dst:(R.To_slot 0) [ R.P (R.Imm 3) ] with
     | () -> Alcotest.fail "P of Imm must fail"
     | exception Invalid_argument _ -> ());
    (* I field must not take a pointer *)
    R.alloc_record rt ~site ~dst:(R.To_slot 0) [ R.I (R.Imm 1) ];
    (match
       R.alloc_record rt ~site ~dst:(R.To_slot 0) [ R.I (R.Slot 0) ]
     with
     | () -> Alcotest.fail "I of pointer must fail"
     | exception Invalid_argument _ -> ());
    (* store typing must agree with the header mask *)
    R.alloc_record rt ~site ~dst:(R.To_slot 0)
      [ R.I (R.Imm 1); R.P R.Nil ];
    (match R.store_field rt ~obj:(R.Slot 0) ~idx:0 (R.P R.Nil) with
     | () -> Alcotest.fail "pointer store into int field must fail"
     | exception Invalid_argument _ -> ());
    (match R.store_field rt ~obj:(R.Slot 0) ~idx:1 (R.I (R.Imm 2)) with
     | () -> Alcotest.fail "int store into pointer field must fail"
     | exception Invalid_argument _ -> ());
    (* bounds *)
    (match R.field_int rt ~obj:(R.Slot 0) ~idx:7 with
     | _ -> Alcotest.fail "bounds"
     | exception Invalid_argument _ -> ());
    (* null deref *)
    (match R.obj_length rt ~obj:R.Nil with
     | _ -> Alcotest.fail "null deref"
     | exception Invalid_argument _ -> ());
    (* the checks below pin each message of the field-access path *)
    let oob = Invalid_argument "Runtime: field index out of bounds" in
    R.alloc_record rt ~site ~dst:(R.To_slot 0) [ R.I (R.Imm 1); R.P R.Nil ];
    List.iter
      (fun idx ->
        Alcotest.check_raises (Printf.sprintf "load index %d" idx) oob (fun () ->
          R.load_field rt ~obj:(R.Slot 0) ~idx ~dst:(R.To_slot 1));
        Alcotest.check_raises (Printf.sprintf "store index %d" idx) oob
          (fun () -> R.store_field rt ~obj:(R.Slot 0) ~idx (R.I (R.Imm 0))))
      [ -1; 2 ];
    (* a pointer field read as an integer *)
    R.alloc_record rt ~site ~dst:(R.To_slot 0) [ R.P (R.Slot 0) ];
    Alcotest.check_raises "field_int of a pointer field"
      (Invalid_argument "Value.to_int: pointer") (fun () ->
        ignore (R.field_int rt ~obj:(R.Slot 0) ~idx:0 : int));
    (* an integer slot used as an object *)
    R.set_slot rt 1 (V.of_int 5);
    Alcotest.check_raises "integer dereference"
      (Invalid_argument "Runtime: dereferencing an integer") (fun () ->
        R.load_field rt ~obj:(R.Slot 1) ~idx:0 ~dst:(R.To_slot 1));
    (* array element typing follows the array kind *)
    R.alloc_nonptr_array rt ~site ~dst:(R.To_slot 0) ~len:2;
    Alcotest.check_raises "pointer store into a non-pointer array"
      (Invalid_argument "Runtime: pointer store into a non-pointer field")
      (fun () -> R.store_field rt ~obj:(R.Slot 0) ~idx:1 (R.P R.Nil));
    R.alloc_ptr_array rt ~site ~dst:(R.To_slot 0) ~len:2;
    Alcotest.check_raises "integer store into a pointer array"
      (Invalid_argument "Runtime: integer store into a pointer field")
      (fun () -> R.store_field rt ~obj:(R.Slot 0) ~idx:1 (R.I (R.Imm 3))))

(* --- rooting through collections --- *)

let churn rt site slot n =
  for i = 1 to n do
    R.alloc_record rt ~site ~dst:(R.To_slot slot) [ R.I (R.Imm i) ]
  done

let registers_are_roots () =
  with_rt @@ fun rt ->
  let site = R.register_site rt ~name:"s" in
  let regs = Rstack.Trace_table.plain_regs () in
  regs.(3) <- T.Reg_ptr;
  let key =
    R.register_frame_regs rt ~name:"f" ~slots:(Workloads.Dsl.slots "p") ~regs
  in
  R.call rt ~key ~args:[] (fun () ->
    R.alloc_record rt ~site ~dst:(R.To_reg 3) [ R.I (R.Imm 99) ];
    churn rt site 0 20000;
    check_int "register root survived" 99
      (R.field_int rt ~obj:(R.Reg 3) ~idx:0))

let callee_save_spill_through_gc () =
  with_rt @@ fun rt ->
  let site = R.register_site rt ~name:"s" in
  let caller_regs = Rstack.Trace_table.plain_regs () in
  caller_regs.(7) <- T.Reg_ptr;
  let k_caller =
    R.register_frame_regs rt ~name:"caller" ~slots:(Workloads.Dsl.slots "p")
      ~regs:caller_regs
  in
  let callee_regs = Rstack.Trace_table.plain_regs () in
  callee_regs.(7) <- T.Reg_callee_save;
  let k_callee =
    R.register_frame_regs rt ~name:"callee"
      ~slots:[| T.Callee_save 7; T.Ptr |] ~regs:callee_regs
  in
  R.call rt ~key:k_caller ~args:[] (fun () ->
    R.alloc_record rt ~site ~dst:(R.To_reg 7) [ R.I (R.Imm 41) ];
    R.call rt ~key:k_callee ~args:[] (fun () ->
      (* spill the caller's register, then clobber it *)
      R.set_slot rt 0 (R.get_reg rt 7);
      R.set_reg rt 7 (V.of_int 0);
      churn rt site 1 20000;
      (* the spill slot is a root because the *caller* said the register
         held a pointer; the object must have moved and been tracked *)
      check_int "spill slot root survived" 41
        (R.field_int rt ~obj:(R.Slot 0) ~idx:0)))

let compute_trace_through_gc () =
  with_rt @@ fun rt ->
  let site = R.register_site rt ~name:"s" in
  let key =
    R.register_frame rt ~name:"poly"
      ~slots:[| T.Non_ptr; T.Compute (T.Type_in_slot 0); T.Ptr |]
  in
  R.call rt ~key ~args:[] (fun () ->
    R.set_slot rt 0 (V.of_int T.type_code_boxed);
    R.alloc_record rt ~site ~dst:(R.To_slot 1) [ R.I (R.Imm 7) ];
    churn rt site 2 20000;
    check_int "compute-traced slot survived" 7
      (R.field_int rt ~obj:(R.Slot 1) ~idx:0))

let globals_are_roots () =
  with_rt @@ fun rt ->
  let site = R.register_site rt ~name:"s" in
  let key = R.register_frame rt ~name:"f" ~slots:(Workloads.Dsl.slots "p") in
  R.call rt ~key ~args:[] (fun () ->
    R.alloc_record rt ~site ~dst:(R.To_global 5) [ R.I (R.Imm 13) ];
    churn rt site 0 20000;
    check_int "global root survived" 13
      (R.field_int rt ~obj:(R.Global 5) ~idx:0))

(* --- exceptions --- *)

let nested_exceptions () =
  with_rt @@ fun rt ->
  let key = R.register_frame rt ~name:"f" ~slots:(Workloads.Dsl.slots "p") in
  let site = R.register_site rt ~name:"s" in
  let result =
    R.call rt ~key ~args:[] (fun () ->
      R.try_with rt
        (fun () ->
          R.try_with rt
            (fun () ->
              R.call rt ~key ~args:[] (fun () ->
                (* the exception value is itself a heap object and must
                   survive the unwind and later collections *)
                R.alloc_record rt ~site ~dst:(R.To_slot 0) [ R.I (R.Imm 21) ];
                R.raise_exn rt (R.Slot 0)))
            ~handler:(fun () ->
              (* inner handler re-raises the heap value *)
              R.set_global rt 63 (R.exn_value rt);
              R.raise_exn rt (R.Global 63)))
        ~handler:(fun () ->
          churn rt site 0 20000;
          R.set_global rt 62 (R.exn_value rt);
          R.field_int rt ~obj:(R.Global 62) ~idx:0))
  in
  check_int "payload through two handlers and a gc" 21 result;
  check_int "stack balanced" 0 (R.depth rt)

let unhandled_raise_fails () =
  with_rt @@ fun rt ->
  let key = R.register_frame rt ~name:"f" ~slots:(Workloads.Dsl.slots "p") in
  R.call rt ~key ~args:[] (fun () ->
    match R.raise_exn rt (R.Imm 1) with
    | _ -> Alcotest.fail "expected failure"
    | exception Failure _ -> ())

(* --- the torture property --- *)

(* A tiny program language interpreted both against the runtime and
   against a native model.  All heap values are (int, next) pairs; the
   observable result is a rolling checksum of the ints loaded. *)

type op =
  | Alloc of int * int        (* dst slot, int payload; next = slot dst *)
  | AllocArr of int * bool    (* dst slot, big? (big = large-object space) *)
  | Load of int * int         (* cell: slot := next; array: slot := elem i *)
  | Read of int               (* cell: += payload; array: += length *)
  | Store of int * int * int  (* cell: next := b; array: elem i := b *)
  | StoreInt of int * int     (* cell only: payload := v *)
  | CallDeep of int           (* recurse, allocating at every level *)
  | RaiseInto of int          (* try { raise v } handled locally *)

let num_slots = 4
let small_arr = 6
let big_arr = 600 (* above the large-object threshold *)

let op_gen =
  QCheck.Gen.(
    frequency
      [ (6, map2 (fun d v -> Alloc (d, v)) (int_bound (num_slots - 1)) (int_bound 1000));
        (2, map2 (fun d big -> AllocArr (d, big)) (int_bound (num_slots - 1)) bool);
        (3, map2 (fun s i -> Load (s, i)) (int_bound (num_slots - 1)) (int_bound 1000));
        (4, map (fun s -> Read s) (int_bound (num_slots - 1)));
        (3, map3 (fun a i b -> Store (a, i, b)) (int_bound (num_slots - 1))
           (int_bound 1000) (int_bound (num_slots - 1)));
        (2, map2 (fun s v -> StoreInt (s, v)) (int_bound (num_slots - 1)) (int_bound 1000));
        (1, map (fun d -> CallDeep (1 + (d mod 30))) (int_bound 100));
        (1, map (fun v -> RaiseInto v) (int_bound 1000)) ])

let show_op = function
  | Alloc (d, v) -> Printf.sprintf "Alloc(%d,%d)" d v
  | AllocArr (d, big) -> Printf.sprintf "AllocArr(%d,%b)" d big
  | Load (s, i) -> Printf.sprintf "Load(%d,%d)" s i
  | Read s -> Printf.sprintf "Read %d" s
  | Store (a, i, b) -> Printf.sprintf "Store(%d,%d,%d)" a i b
  | StoreInt (s, v) -> Printf.sprintf "StoreInt(%d,%d)" s v
  | CallDeep n -> Printf.sprintf "CallDeep %d" n
  | RaiseInto v -> Printf.sprintf "RaiseInto %d" v

let arb_program =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 10 120) op_gen)

(* native model *)
module Model = struct
  type value =
    | Nil
    | Cell of cell
    | Arr of value array
  and cell = { mutable v : int; mutable next : value }

  let run ops =
    let slots = Array.make num_slots Nil in
    let sum = ref 0 in
    let add x = sum := (!sum + x) land 0x3FFFFFFF in
    let interp ops =
      List.iter
        (fun op ->
          match op with
          | Alloc (d, v) -> slots.(d) <- Cell { v; next = slots.(d) }
          | AllocArr (d, big) ->
            slots.(d) <- Arr (Array.make (if big then big_arr else small_arr) Nil)
          | Load (s, i) ->
            (match slots.(s) with
             | Cell c -> slots.(s) <- c.next
             | Arr a -> slots.(s) <- a.(i mod Array.length a)
             | Nil -> ())
          | Read s ->
            (match slots.(s) with
             | Cell c -> add c.v
             | Arr a -> add (Array.length a)
             | Nil -> add 1)
          | Store (a, i, b) ->
            (match slots.(a) with
             | Cell c -> c.next <- slots.(b)
             | Arr arr -> arr.(i mod Array.length arr) <- slots.(b)
             | Nil -> ())
          | StoreInt (s, v) ->
            (match slots.(s) with
             | Cell c -> c.v <- v
             | Arr _ | Nil -> ())
          | CallDeep n ->
            let rec deep n = if n > 0 then begin add n; deep (n - 1) end in
            deep n
          | RaiseInto v -> add (v + 3))
        ops
    in
    interp ops;
    !sum
end

(* runtime interpretation; every Alloc can trigger a collection *)
let run_sim cfg ops =
  with_rt ~cfg @@ fun rt ->
  let site = R.register_site rt ~name:"torture" in
  let site_arr = R.register_site rt ~name:"torture_arr" in
  let key =
    R.register_frame rt ~name:"torture" ~slots:(Array.make num_slots T.Ptr)
  in
  let k_deep = R.register_frame rt ~name:"deep" ~slots:(Workloads.Dsl.slots "pp") in
  let sum = ref 0 in
  let add x = sum := (!sum + x) land 0x3FFFFFFF in
  (* both interpreters derive "what is in this slot" from their own heap,
     so their control flow stays identical *)
  let is_arr s =
    (not (R.is_nil rt (R.Slot s))) && R.obj_site rt ~obj:(R.Slot s) = site_arr
  in
  R.call rt ~key ~args:[] (fun () ->
    List.iter
      (fun op ->
        match op with
        | Alloc (d, v) ->
          R.alloc_record rt ~site ~dst:(R.To_slot d)
            [ R.I (R.Imm v); R.P (R.Slot d) ]
        | AllocArr (d, big) ->
          R.alloc_ptr_array rt ~site:site_arr ~dst:(R.To_slot d)
            ~len:(if big then big_arr else small_arr)
        | Load (s, i) ->
          if not (R.is_nil rt (R.Slot s)) then begin
            let idx =
              if is_arr s then i mod R.obj_length rt ~obj:(R.Slot s) else 1
            in
            R.load_field rt ~obj:(R.Slot s) ~idx ~dst:(R.To_slot s)
          end
        | Read s ->
          if R.is_nil rt (R.Slot s) then add 1
          else if is_arr s then add (R.obj_length rt ~obj:(R.Slot s))
          else add (R.field_int rt ~obj:(R.Slot s) ~idx:0)
        | Store (a, i, b) ->
          if not (R.is_nil rt (R.Slot a)) then begin
            let idx =
              if is_arr a then i mod R.obj_length rt ~obj:(R.Slot a) else 1
            in
            R.store_field rt ~obj:(R.Slot a) ~idx (R.P (R.Slot b))
          end
        | StoreInt (s, v) ->
          if (not (R.is_nil rt (R.Slot s))) && not (is_arr s) then
            R.store_field rt ~obj:(R.Slot s) ~idx:0 (R.I (R.Imm v))
        | CallDeep n ->
          (* a non-tail recursion that allocates at every level *)
          let rec deep n =
            R.call rt ~key:k_deep ~args:[] (fun () ->
              if n > 0 then begin
                add n;
                R.alloc_record rt ~site ~dst:(R.To_slot 0)
                  [ R.I (R.Imm n); R.P (R.Slot 0) ];
                deep (n - 1)
              end)
          in
          deep n
        | RaiseInto v ->
          add
            (R.try_with rt
               (fun () -> R.raise_exn rt (R.Imm v))
               ~handler:(fun () -> V.to_int (R.exn_value rt) + 3)))
      ops;
    ignore (R.check_heap rt : int));
  !sum

let torture_configs =
  (* worst-case live data: every slot holding a large array *)
  let tight = 96 * 1024 in
  let pol = Gsc.Pretenure.of_sites ~sites:[ 0 ] ~no_scan:[] in
  [ { (Gsc.Config.semispace ~budget_bytes:tight) with Gsc.Config.verify_heap = true };
    { (Gsc.Config.generational ~budget_bytes:tight) with
      Gsc.Config.nursery_bytes_max = 2 * 1024;
      verify_heap = true };
    { (Gsc.Config.with_markers ~budget_bytes:tight) with
      Gsc.Config.nursery_bytes_max = 2 * 1024;
      marker_spacing = 4;
      verify_heap = true };
    { (Gsc.Config.with_pretenuring ~budget_bytes:tight pol) with
      Gsc.Config.nursery_bytes_max = 2 * 1024;
      marker_spacing = 4;
      verify_heap = true };
    { (Gsc.Config.generational ~budget_bytes:tight) with
      Gsc.Config.nursery_bytes_max = 2 * 1024;
      barrier = Collectors.Generational.Barrier_remset;
      verify_heap = true };
    { (Gsc.Config.with_markers ~budget_bytes:tight) with
      Gsc.Config.nursery_bytes_max = 2 * 1024;
      marker_spacing = 4;
      exception_strategy = Gsc.Config.Deferred_handler_walk;
      verify_heap = true };
    { (Gsc.Config.generational ~budget_bytes:tight) with
      Gsc.Config.nursery_bytes_max = 2 * 1024;
      tenure_threshold = 3;
      verify_heap = true };
    { (Gsc.Config.with_markers ~budget_bytes:tight) with
      Gsc.Config.nursery_bytes_max = 2 * 1024;
      marker_spacing = 4;
      tenure_threshold = 2;
      verify_heap = true };
    { (Gsc.Config.generational ~budget_bytes:tight) with
      Gsc.Config.nursery_bytes_max = 2 * 1024;
      barrier = Collectors.Generational.Barrier_cards;
      verify_heap = true };
    { (Gsc.Config.generational ~budget_bytes:tight) with
      Gsc.Config.nursery_bytes_max = 2 * 1024;
      barrier = Collectors.Generational.Barrier_cards;
      tenure_threshold = 2;
      verify_heap = true } ]

let torture_prop =
  QCheck.Test.make ~name:"random programs agree under every collector"
    ~count:120 arb_program (fun ops ->
      let expected = Model.run ops in
      List.for_all (fun cfg -> run_sim cfg ops = expected) torture_configs)

let () =
  Alcotest.run "runtime"
    [ ( "typing",
        [ Alcotest.test_case "operand typing" `Quick operand_typing ] );
      ( "roots",
        [ Alcotest.test_case "registers" `Quick registers_are_roots;
          Alcotest.test_case "callee-save spill" `Quick
            callee_save_spill_through_gc;
          Alcotest.test_case "compute trace" `Quick compute_trace_through_gc;
          Alcotest.test_case "globals" `Quick globals_are_roots ] );
      ( "exceptions",
        [ Alcotest.test_case "nested" `Quick nested_exceptions;
          Alcotest.test_case "unhandled" `Quick unhandled_raise_fails ] );
      ("torture", [ QCheck_alcotest.to_alcotest torture_prop ]) ]

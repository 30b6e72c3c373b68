(* Unit and property tests for the stack substrate: trace tables, the
   two-pass scan (callee-save and compute resolution), the scan cache,
   and the stack-marker state machine. *)

module T = Rstack.Trace
module TT = Rstack.Trace_table
module St = Rstack.Stack_

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_table () = TT.create ()

let reg_entry ~name ~slots ?(regs = TT.plain_regs ()) table =
  TT.register table { TT.name; slots; regs }

let some_addr = Mem.Addr.make ~block:3 ~offset:0
let ptr = Mem.Value.of_addr some_addr

let scan ?(mode = Rstack.Scan.Full) ?(valid = 0) ~stack ~regs ~cache () =
  let roots = ref [] in
  let res =
    Rstack.Scan.run ~stack ~regs ~cache ~valid_prefix:valid ~mode
      ~visit:(fun r -> roots := r :: !roots)
  in
  (res, List.rev !roots)

(* --- trace table --- *)

let table_validation () =
  let t = mk_table () in
  Alcotest.check_raises "bad callee-save register"
    (Invalid_argument "Trace_table.register: register index out of range")
    (fun () ->
      ignore (reg_entry t ~name:"bad" ~slots:[| T.Callee_save 99 |]));
  Alcotest.check_raises "bad compute slot"
    (Invalid_argument "Trace_table.register: slot index out of frame")
    (fun () ->
      ignore (reg_entry t ~name:"bad" ~slots:[| T.Compute (T.Type_in_slot 5) |]));
  let k = reg_entry t ~name:"ok" ~slots:[| T.Ptr; T.Non_ptr |] in
  check_int "frame size" 2 (TT.frame_size t k)

(* --- basic scanning --- *)

let scan_finds_pointer_slots () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr; T.Non_ptr; T.Ptr |] in
  let stack = St.create t in
  let regs = Rstack.Reg_file.create () in
  let frame = St.push stack ~key:k in
  Rstack.Frame.set frame 0 ptr;
  Rstack.Frame.set frame 2 ptr;
  let res, roots = scan ~stack ~regs ~cache:(Rstack.Scan_cache.create ()) () in
  check_int "roots" 2 (List.length roots);
  check_int "decoded" 1 res.Rstack.Scan.frames_decoded;
  check_int "slots" 3 res.Rstack.Scan.slots_decoded

let scan_callee_save () =
  (* caller leaves a pointer in register 5; callee spills it; the spill
     slot is a root only because of the caller's register trace *)
  let t = mk_table () in
  let caller_regs = TT.plain_regs () in
  caller_regs.(5) <- T.Reg_ptr;
  let k_caller = reg_entry t ~name:"caller" ~slots:[||] ~regs:caller_regs in
  let callee_regs = TT.plain_regs () in
  callee_regs.(5) <- T.Reg_callee_save;
  let k_callee =
    reg_entry t ~name:"callee" ~slots:[| T.Callee_save 5 |] ~regs:callee_regs
  in
  let stack = St.create t in
  let regs = Rstack.Reg_file.create () in
  ignore (St.push stack ~key:k_caller);
  let callee = St.push stack ~key:k_callee in
  Rstack.Frame.set callee 0 ptr;
  Rstack.Reg_file.set regs 5 ptr;
  let _, roots = scan ~stack ~regs ~cache:(Rstack.Scan_cache.create ()) () in
  (* spill slot + live register *)
  check_int "roots" 2 (List.length roots);
  (* now the caller says register 5 is an integer: no roots *)
  let t2 = mk_table () in
  let k_caller2 = reg_entry t2 ~name:"caller" ~slots:[||] in
  let k_callee2 =
    reg_entry t2 ~name:"callee" ~slots:[| T.Callee_save 5 |] ~regs:callee_regs
  in
  let stack2 = St.create t2 in
  ignore (St.push stack2 ~key:k_caller2);
  let callee2 = St.push stack2 ~key:k_callee2 in
  Rstack.Frame.set callee2 0 (Mem.Value.of_int 7);
  let _, roots2 = scan ~stack:stack2 ~regs ~cache:(Rstack.Scan_cache.create ()) () in
  check_int "no roots when caller register dead" 0 (List.length roots2)

let scan_compute () =
  let t = mk_table () in
  let k =
    reg_entry t ~name:"poly"
      ~slots:[| T.Non_ptr; T.Compute (T.Type_in_slot 0) |]
  in
  let stack = St.create t in
  let regs = Rstack.Reg_file.create () in
  let frame = St.push stack ~key:k in
  Rstack.Frame.set frame 0 (Mem.Value.of_int T.type_code_boxed);
  Rstack.Frame.set frame 1 ptr;
  let _, roots = scan ~stack ~regs ~cache:(Rstack.Scan_cache.create ()) () in
  check_int "boxed: one root" 1 (List.length roots);
  Rstack.Frame.set frame 0 (Mem.Value.of_int T.type_code_word);
  let _, roots = scan ~stack ~regs ~cache:(Rstack.Scan_cache.create ()) () in
  check_int "unboxed: no roots" 0 (List.length roots)

(* --- cache reuse --- *)

let deep_stack table key n =
  let stack = St.create table in
  for _ = 1 to n do
    let f = St.push stack ~key in
    Rstack.Frame.set f 0 ptr
  done;
  stack

let scan_cache_reuse () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr; T.Non_ptr |] in
  let stack = deep_stack t k 50 in
  let regs = Rstack.Reg_file.create () in
  let cache = Rstack.Scan_cache.create () in
  let res1, roots1 = scan ~stack ~regs ~cache () in
  check_int "first scan decodes all" 50 res1.Rstack.Scan.frames_decoded;
  (* second scan with a 40-frame valid prefix *)
  let res2, roots2 = scan ~valid:40 ~stack ~regs ~cache () in
  check_int "reused" 40 res2.Rstack.Scan.frames_reused;
  check_int "decoded" 10 res2.Rstack.Scan.frames_decoded;
  check_int "same root count (Full mode)" (List.length roots1)
    (List.length roots2);
  (* minor mode skips the cached prefix entirely *)
  let res3, roots3 = scan ~mode:Rstack.Scan.Minor ~valid:40 ~stack ~regs ~cache () in
  check_int "minor reports only fresh" 10 (List.length roots3);
  check_int "minor reuses" 40 res3.Rstack.Scan.frames_reused

let scan_cache_serial_guard () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr |] in
  let stack = deep_stack t k 10 in
  let regs = Rstack.Reg_file.create () in
  let cache = Rstack.Scan_cache.create () in
  ignore (scan ~stack ~regs ~cache ());
  (* replace the top 5 frames: serials change *)
  St.unwind_to stack ~depth:5;
  for _ = 1 to 5 do
    ignore (St.push stack ~key:k)
  done;
  (* claiming a 10-deep valid prefix must be caught *)
  (match scan ~valid:10 ~stack ~regs ~cache () with
   | _ -> Alcotest.fail "expected serial mismatch"
   | exception Invalid_argument _ -> ());
  (* a 5-deep prefix is fine *)
  let res, _ = scan ~valid:5 ~stack ~regs ~cache () in
  check_int "reused 5" 5 res.Rstack.Scan.frames_reused

(* --- markers --- *)

let markers_basic () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr |] in
  let stack = deep_stack t k 100 in
  let m = Rstack.Markers.create ~n:25 in
  check_int "no reuse before placement" 0 (Rstack.Markers.valid_prefix m);
  ignore (Rstack.Markers.place m stack : int);
  (* deepest marker is at depth 100; the top frame is excluded *)
  check_int "after placement" 99 (Rstack.Markers.valid_prefix m);
  (* pop 10 frames: the marker at 100 fires, 75 remains; frame 75 itself
     may have resumed, so 74 frames are reusable *)
  for _ = 1 to 10 do
    let d = St.depth stack in
    let f = St.pop stack in
    Rstack.Markers.frame_popped m f ~depth:d
  done;
  check_int "marker at 75 bounds reuse" 74 (Rstack.Markers.valid_prefix m);
  check_int "one stub hit" 1 (Rstack.Markers.stub_hits m)

let markers_push_between () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr |] in
  let stack = deep_stack t k 60 in
  let m = Rstack.Markers.create ~n:25 in
  ignore (Rstack.Markers.place m stack : int);
  check_int "valid 49" 49 (Rstack.Markers.valid_prefix m);
  (* pop 5 (no marker fired: 60 -> 55), push 20 new ones *)
  for _ = 1 to 5 do
    let d = St.depth stack in
    let f = St.pop stack in
    Rstack.Markers.frame_popped m f ~depth:d
  done;
  check_int "no marker fired" 49 (Rstack.Markers.valid_prefix m);
  for _ = 1 to 20 do
    ignore (St.push stack ~key:k)
  done;
  check_int "pushes do not hurt" 49 (Rstack.Markers.valid_prefix m)

let markers_exception_watermark () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr |] in
  let stack = deep_stack t k 100 in
  let m = Rstack.Markers.create ~n:25 in
  ignore (Rstack.Markers.place m stack : int);
  (* an exception unwinds straight past the markers at 100, 75 and 50 *)
  St.unwind_to stack ~depth:40;
  Rstack.Markers.exception_unwound m ~target_depth:40;
  check_bool "watermark bounds reuse" true (Rstack.Markers.valid_prefix m <= 40);
  check_int "no stub hits" 0 (Rstack.Markers.stub_hits m)

let markers_idempotent_placement () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr |] in
  let stack = deep_stack t k 100 in
  let m = Rstack.Markers.create ~n:25 in
  let first = Rstack.Markers.place m stack in
  check_int "four markers" 4 first;
  let second = Rstack.Markers.place m stack in
  check_int "already marked" 0 second

(* property: the prefix claimed reusable consists of frames that are both
   the SAME frames as at scan time (serials) and UNTOUCHED since (slot
   contents), under random pop/push/mutate/exception traffic.  Mutation
   models the runtime's rule that only the active (top) frame's slots are
   ever written. *)
let markers_prop =
  QCheck.Test.make ~name:"marker prefix is always sound" ~count:500
    QCheck.(list (int_range 0 11))
    (fun ops ->
      let t = mk_table () in
      let k = reg_entry t ~name:"f" ~slots:[| T.Non_ptr |] in
      let stack = St.create t in
      for _ = 1 to 80 do
        ignore (St.push stack ~key:k)
      done;
      let m = Rstack.Markers.create ~n:10 in
      ignore (Rstack.Markers.place m stack : int);
      (* remember serials and slot contents present at scan time *)
      let serials_at_scan =
        Array.init (St.depth stack) (fun i -> (St.frame_at stack i).Rstack.Frame.serial)
      in
      let slots_at_scan =
        Array.init (St.depth stack) (fun i ->
          Rstack.Frame.get (St.frame_at stack i) 0)
      in
      let stamp = ref 1000 in
      let mutate_top () =
        if St.depth stack > 0 then begin
          incr stamp;
          Rstack.Frame.set (St.top stack) 0 (Mem.Value.of_int !stamp)
        end
      in
      let check ok =
        let v = Rstack.Markers.valid_prefix m in
        if v > St.depth stack || v > Array.length serials_at_scan then
          ok := false
        else
          for i = 0 to v - 1 do
            let f = St.frame_at stack i in
            if
              f.Rstack.Frame.serial <> serials_at_scan.(i)
              || not (Mem.Value.equal (Rstack.Frame.get f 0) slots_at_scan.(i))
            then ok := false
          done
      in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | 0 | 1 | 2 ->
            (* pop a few; the frame exposed on top resumes and mutates *)
            for _ = 1 to 3 do
              if St.depth stack > 0 then begin
                let d = St.depth stack in
                let f = St.pop stack in
                Rstack.Markers.frame_popped m f ~depth:d;
                mutate_top ()
              end
            done
          | 3 | 4 | 5 ->
            for _ = 1 to 4 do
              ignore (St.push stack ~key:k);
              mutate_top ()
            done
          | 6 ->
            (* exception unwind; the handler frame resumes and mutates *)
            let target = St.depth stack / 2 in
            St.unwind_to stack ~depth:target;
            Rstack.Markers.exception_unwound m ~target_depth:target;
            mutate_top ()
          | 7 | 8 ->
            (* the active frame keeps computing *)
            mutate_top ()
          | _ -> check ok)
        ops;
      check ok;
      !ok)

let scan_empty_stack () =
  let t = mk_table () in
  let stack = St.create t in
  let regs = Rstack.Reg_file.create () in
  let res, roots = scan ~stack ~regs ~cache:(Rstack.Scan_cache.create ()) () in
  check_int "no roots" 0 (List.length roots);
  check_int "no frames" 0 res.Rstack.Scan.depth

let scan_fully_cached () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr |] in
  let stack = deep_stack t k 10 in
  let regs = Rstack.Reg_file.create () in
  let cache = Rstack.Scan_cache.create () in
  ignore (scan ~stack ~regs ~cache ());
  (* a full prefix: Full mode replays every root, Minor reports none *)
  let _, roots_full = scan ~valid:10 ~stack ~regs ~cache () in
  check_int "full replays all" 10 (List.length roots_full);
  let res, roots_minor =
    scan ~mode:Rstack.Scan.Minor ~valid:10 ~stack ~regs ~cache ()
  in
  check_int "minor reports none" 0 (List.length roots_minor);
  check_int "nothing decoded" 0 res.Rstack.Scan.frames_decoded

let markers_spacing_exceeds_depth () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr |] in
  let stack = deep_stack t k 10 in
  let m = Rstack.Markers.create ~n:25 in
  check_int "nothing installed" 0 (Rstack.Markers.place m stack);
  check_int "no reuse possible" 0 (Rstack.Markers.valid_prefix m)

let markers_full_unwind () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr |] in
  let stack = deep_stack t k 60 in
  let m = Rstack.Markers.create ~n:10 in
  ignore (Rstack.Markers.place m stack : int);
  St.unwind_to stack ~depth:0;
  Rstack.Markers.exception_unwound m ~target_depth:0;
  check_int "empty stack reuses nothing" 0 (Rstack.Markers.valid_prefix m)

(* --- stack bookkeeping --- *)

let new_frames_counting () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr |] in
  let stack = St.create t in
  for _ = 1 to 10 do
    ignore (St.push stack ~key:k)
  done;
  let mark = St.next_serial stack - 1 in
  check_int "all new initially" 10 (St.count_new_frames stack ~since_serial:(-1));
  check_int "none new after mark" 0 (St.count_new_frames stack ~since_serial:mark);
  ignore (St.push stack ~key:k);
  ignore (St.push stack ~key:k);
  check_int "two new" 2 (St.count_new_frames stack ~since_serial:mark)

let () =
  Alcotest.run "rstack"
    [ ( "trace-table",
        [ Alcotest.test_case "validation" `Quick table_validation ] );
      ( "scan",
        [ Alcotest.test_case "pointer slots" `Quick scan_finds_pointer_slots;
          Alcotest.test_case "callee-save" `Quick scan_callee_save;
          Alcotest.test_case "compute" `Quick scan_compute ] );
      ( "cache",
        [ Alcotest.test_case "reuse" `Quick scan_cache_reuse;
          Alcotest.test_case "serial guard" `Quick scan_cache_serial_guard ] );
      ( "scan-edges",
        [ Alcotest.test_case "empty stack" `Quick scan_empty_stack;
          Alcotest.test_case "fully cached" `Quick scan_fully_cached ] );
      ( "markers",
        [ Alcotest.test_case "basic" `Quick markers_basic;
          Alcotest.test_case "spacing exceeds depth" `Quick
            markers_spacing_exceeds_depth;
          Alcotest.test_case "full unwind" `Quick markers_full_unwind;
          Alcotest.test_case "push between" `Quick markers_push_between;
          Alcotest.test_case "exception watermark" `Quick
            markers_exception_watermark;
          Alcotest.test_case "idempotent placement" `Quick
            markers_idempotent_placement;
          QCheck_alcotest.to_alcotest markers_prop ] );
      ( "stack",
        [ Alcotest.test_case "new frames" `Quick new_frames_counting ] ) ]

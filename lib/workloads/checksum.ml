(* Checksum (Table 1): the Foxnet checksum fragment.  A 16 KB buffer is
   created once and checksummed [scale] times with an iterator; the
   iterator boxes its accumulator on every step, which is where the
   paper's enormous record churn with near-zero live data comes from.
   Stack depth stays at ~4 frames (main -> iterate -> fold step). *)

module R = Gsc.Runtime

let buffer_words = 2048 (* 16 KB *)

(* The reference checksum, computed natively: a 16-bit ones'-complement-ish
   rolling sum over the deterministic buffer contents. *)
let expected_checksum ~iters =
  let prng = Support.Prng.create ~seed:0xC45 in
  let data = Array.init buffer_words (fun _ -> Support.Prng.int prng 65536) in
  let one_pass () =
    Array.fold_left (fun acc v -> (acc + v) land 0xFFFF) 0 data
  in
  let sum = ref 0 in
  for _ = 1 to iters do
    sum := (!sum + one_pass ()) land 0xFFFF
  done;
  !sum

let run rt ~scale =
  let s_buf = R.register_site rt ~name:"chk.buffer" in
  let s_acc = R.register_site rt ~name:"chk.fold_acc" in
  (* main: 0 = buffer ptr, 1 = outer sum (int) *)
  let k_main = R.register_frame rt ~name:"chk.main" ~slots:(Dsl.slots "pi") in
  (* iterate: 0 = buffer, 1 = acc record ptr, 2 = index *)
  let k_iter = R.register_frame rt ~name:"chk.iterate" ~slots:(Dsl.slots "ppi") in
  (* step: 0 = buffer, 1 = acc record *)
  let k_step = R.register_frame rt ~name:"chk.step" ~slots:(Dsl.slots "pp") in
  let prng = Support.Prng.create ~seed:0xC45 in
  R.call rt ~key:k_main ~args:[] (fun () ->
    (* create the buffer once and fill it deterministically *)
    R.alloc_nonptr_array rt ~site:s_buf ~dst:(R.To_slot 0) ~len:buffer_words;
    for i = 0 to buffer_words - 1 do
      R.store_field rt ~obj:(R.Slot 0) ~idx:i
        (R.I (R.Imm (Support.Prng.int prng 65536)))
    done;
    R.set_slot rt 1 (Mem.Value.of_int 0);
    for _ = 1 to scale do
      let pass_sum =
        R.call rt ~key:k_iter
          ~args:[ R.get_slot rt 0; Mem.Value.null; Mem.Value.of_int 0 ]
          (fun () ->
            (* boxed accumulator: a fresh record per element, exactly the
               short-lived allocation the paper's iterators produce *)
            R.alloc_record rt ~site:s_acc ~dst:(R.To_slot 1) [ R.I (R.Imm 0) ];
            let len = R.obj_length rt ~obj:(R.Slot 0) in
            for i = 0 to len - 1 do
              R.call rt ~key:k_step
                ~args:[ R.get_slot rt 0; R.get_slot rt 1 ]
                (fun () ->
                  let acc = R.field_int rt ~obj:(R.Slot 1) ~idx:0 in
                  let v = R.field_int rt ~obj:(R.Slot 0) ~idx:i in
                  R.alloc_record rt ~site:s_acc ~dst:(R.To_slot 1)
                    [ R.I (R.Imm ((acc + v) land 0xFFFF)) ];
                  R.get_slot rt 1)
              |> R.set_slot rt 1
            done;
            R.field_int rt ~obj:(R.Slot 1) ~idx:0)
      in
      let outer = Mem.Value.to_int (R.get_slot rt 1) in
      R.set_slot rt 1 (Mem.Value.of_int ((outer + pass_sum) land 0xFFFF))
    done;
    let got = Mem.Value.to_int (R.get_slot rt 1) in
    let want = expected_checksum ~iters:scale in
    if got <> want then
      failwith (Printf.sprintf "checksum: got %d, want %d" got want))

let workload =
  { Spec.name = "checksum";
    description =
      "Checksum fragment from the Foxnet: a 16KB buffer is checksummed \
       with a boxing iterator many times";
    paper_lines = 241;
    default_scale = 40;
    run }

type t = int

let of_int n =
  let w = (n lsl 1) lor 1 in
  if w asr 1 <> n then invalid_arg "Value.of_int: integer outside the 62-bit payload";
  w

let of_addr a = Addr.encode_raw a lsl 1

let null = of_addr Addr.null
let zero = of_int 0

let is_int w = w land 1 = 1
let is_ptr w = w land 1 = 0 && w <> null
let is_null w = w = null

let to_int w =
  if w land 1 = 0 then invalid_arg "Value.to_int: pointer";
  w asr 1

let to_addr w =
  if w land 1 = 1 then invalid_arg "Value.to_addr: integer";
  if w = null then invalid_arg "Value.to_addr: null pointer";
  Addr.decode_raw (w asr 1)

let equal = Int.equal

let pp fmt w =
  if is_int w then Format.fprintf fmt "i%d" (w asr 1)
  else Format.fprintf fmt "p%a" Addr.pp (Addr.decode_raw (w asr 1))

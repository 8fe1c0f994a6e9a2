(* FNV-1a's shape, one word at a time instead of one byte, with an odd
   62-bit multiplier (the golden ratio's bits), and a xorshift-multiply
   finaliser. Multiplying by an odd constant is a bijection on the
   63-bit ints, so two states that differ in exactly one word never
   collide before [finish]. *)

let seed = 0x2545f4914f6cdd1d
let k = 0x1e3779b97f4a7c15

let int h x = (h lxor x) * k

let ints h a =
  let h = ref h in
  for i = 0 to Array.length a - 1 do
    h := int !h a.(i)
  done;
  int !h (Array.length a)

external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"

(* The loop stays here, next to [int], so that each word costs a
   multiply and a xor rather than a call. *)
let words16 h b off n =
  if off < 0 || n < 0 || 2 * (off + n) > Bytes.length b then invalid_arg "Mix.words16";
  let h = ref h in
  for i = off to off + n - 1 do
    h := int !h (get16u b (2 * i))
  done;
  int !h n

let finish h =
  let h = h lxor (h lsr 32) in
  let h = h * 0x1d8e4e27c47d124f in
  (h lxor (h lsr 29)) land max_int

(* Log-scale histogram: HDR-style bucketing with 4 sub-buckets per octave.

   Index layout: bucket 0 holds value 0, buckets 1..3 hold the exact values
   1..3, and for v >= 4 with m = floor(log2 v) the bucket is
   4*(m-1) + ((v >> (m-2)) land 3) — four equal-width sub-buckets per
   octave, so bucket bounds are within a factor of 2^(1/4) ~ 1.19 of any
   member.  All updates are single atomic adds: safe from any domain. *)

let nbuckets = 256

type t = {
  counts : int Atomic.t array;
  total : int Atomic.t;
  sum : int Atomic.t;
}

let create () =
  {
    counts = Array.init nbuckets (fun _ -> Atomic.make 0);
    total = Atomic.make 0;
    sum = Atomic.make 0;
  }

let msb v =
  (* position of the highest set bit; v >= 1 *)
  let rec go m v = if v <= 1 then m else go (m + 1) (v lsr 1) in
  go 0 v

let index_of v =
  if v <= 0 then 0
  else if v < 4 then v
  else
    let m = msb v in
    let i = (4 * (m - 1)) + ((v lsr (m - 2)) land 3) in
    if i >= nbuckets then nbuckets - 1 else i

let bounds_of_index i =
  if i <= 0 then (0, 0)
  else if i < 4 then (i, i)
  else
    let m = (i / 4) + 1 and sub = i mod 4 in
    let width = 1 lsl (m - 2) in
    let lo = (4 + sub) * width in
    if i = nbuckets - 1 then (lo, max_int) else (lo, lo + width - 1)

let bounds_of_value v = bounds_of_index (index_of v)

let observe t v =
  let v = if v < 0 then 0 else v in
  ignore (Atomic.fetch_and_add t.counts.(index_of v) 1);
  ignore (Atomic.fetch_and_add t.total 1);
  ignore (Atomic.fetch_and_add t.sum v)

let count t = Atomic.get t.total
let sum t = Atomic.get t.sum

let nonzero_buckets t =
  let out = ref [] in
  for i = nbuckets - 1 downto 0 do
    let c = Atomic.get t.counts.(i) in
    if c > 0 then
      let lo, hi = bounds_of_index i in
      out := (lo, hi, c) :: !out
  done;
  !out

(* the midpoint of the bucket holding the rank-ceil(p * n) sample; the
   overflow bucket has no upper bound, so it answers its lower one *)
let percentile_of_buckets buckets p =
  let n = List.fold_left (fun acc (_, _, c) -> acc + c) 0 buckets in
  if n = 0 then 0.0
  else
    let rank = max 1 (min n (int_of_float (ceil (p *. float_of_int n)))) in
    let rec find acc = function
      | [] -> (0, 0)
      | [ (lo, hi, _) ] -> (lo, hi)
      | (lo, hi, c) :: rest ->
        if acc + c >= rank then (lo, hi) else find (acc + c) rest
    in
    let lo, hi = find 0 buckets in
    if hi = max_int then float_of_int lo
    else (float_of_int lo +. float_of_int hi) /. 2.0

let percentile t p = percentile_of_buckets (nonzero_buckets t) p

let merge a b =
  let t = create () in
  for i = 0 to nbuckets - 1 do
    Atomic.set t.counts.(i) (Atomic.get a.counts.(i) + Atomic.get b.counts.(i))
  done;
  Atomic.set t.total (count a + count b);
  Atomic.set t.sum (sum a + sum b);
  t

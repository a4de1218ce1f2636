let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

(* Left to right in both passes, so a range sums exactly as the same
   elements copied into an array of their own. *)
let variance_sub xs pos len =
  if pos < 0 || len < 0 || pos > Array.length xs - len then
    invalid_arg "Stats.variance_sub";
  if len < 2 then 0.0
  else begin
    let sum = ref 0.0 in
    for i = pos to pos + len - 1 do
      sum := !sum +. xs.(i)
    done;
    let m = !sum /. float_of_int len in
    let acc = ref 0.0 in
    for i = pos to pos + len - 1 do
      acc := !acc +. ((xs.(i) -. m) *. (xs.(i) -. m))
    done;
    !acc /. float_of_int len
  end

let variance xs = variance_sub xs 0 (Array.length xs)

let stddev xs = sqrt (variance xs)

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty array";
  Array.fold_left
    (fun (lo, hi) x -> (min lo x, max hi x))
    (xs.(0), xs.(0))
    xs

(* Order statistics must not use polymorphic [compare]: it boxes every
   comparison and gives NaN an arbitrary rank, so a single NaN silently
   shifts which element is reported. NaN is propagated explicitly
   instead, and the sort uses the total order of [Float.compare]. *)
let has_nan xs = Array.exists Float.is_nan xs

let median xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else if has_nan xs then Float.nan
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    if n mod 2 = 1 then sorted.(n / 2)
    else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0
  end

let normalize xs =
  let total = Array.fold_left ( +. ) 0.0 xs in
  let n = Array.length xs in
  if total <= 0.0 then
    if n = 0 then [||] else Array.make n (1.0 /. float_of_int n)
  else Array.map (fun x -> x /. total) xs

let shannon_entropy xs =
  let p = normalize xs in
  let total = Array.fold_left ( +. ) 0.0 xs in
  if total <= 0.0 && Array.length xs = 0 then 0.0
  else
    Array.fold_left
      (fun acc pi -> if pi > 0.0 then acc -. (pi *. log pi) else acc)
      0.0 p

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if Float.is_nan p then invalid_arg "Stats.percentile: NaN rank";
  if has_nan xs then Float.nan
  else begin
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  let idx = max 0 (min (n - 1) (rank - 1)) in
  sorted.(idx)
  end

(* The serving-report latency percentiles. Nearest-rank keeps ties
   trivial: with duplicated values the duplicated element itself is
   returned (never an interpolation), so p50/p95/p99 of an array of
   identical values is that value. *)
let p50 xs = percentile xs 50.0
let p95 xs = percentile xs 95.0
let p99 xs = percentile xs 99.0

(* ---------- mergeable percentiles (federation-level summaries) ---------- *)

(* Per-cluster latency samples are sorted once, merged once, and ranked
   once: [percentile_sorted (merge_sorted parts) p] is provably equal to
   [percentile (concat parts) p] because a k-way merge of sorted arrays
   is a sort of their concatenation (test/test_util.ml checks the
   identity on random partitions). *)

let sorted xs =
  let c = Array.copy xs in
  Array.sort Float.compare c;
  c

let merge2 a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then Array.copy b
  else if lb = 0 then Array.copy a
  else begin
    let out = Array.make (la + lb) 0.0 in
    let i = ref 0 and j = ref 0 in
    for k = 0 to la + lb - 1 do
      if !j >= lb || (!i < la && Float.compare a.(!i) b.(!j) <= 0) then begin
        out.(k) <- a.(!i);
        incr i
      end
      else begin
        out.(k) <- b.(!j);
        incr j
      end
    done;
    out
  end

let merge_sorted parts = List.fold_left merge2 [||] parts

let percentile_sorted xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile_sorted: empty array";
  if Float.is_nan p then invalid_arg "Stats.percentile_sorted: NaN rank";
  if has_nan xs then Float.nan
  else begin
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    let idx = max 0 (min (n - 1) (rank - 1)) in
    xs.(idx)
  end

let geometric_mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let acc = Array.fold_left (fun a x -> a +. log x) 0.0 xs in
    exp (acc /. float_of_int n)
  end

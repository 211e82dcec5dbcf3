type factorization = {
  lu : Mat.t;  (* L below diagonal (unit diag implied), U on/above *)
  perm : int array;  (* row permutation applied to the input *)
  mutable sign : float;  (* parity of the permutation, for det *)
}

exception Singular of int

(* In-place Doolittle elimination with partial pivoting over [lu]/[perm];
   returns the permutation sign.  Both [factorize] and [refactorize] run
   exactly this loop, so a factorization rebuilt into reused storage is
   bitwise-identical to a fresh one. *)
(* The row update indexes the flat row-major [data] array directly: it is
   the O(n^3) inner loop of every simplex refactorization and must not
   allocate per element. *)
let eliminate ~pivot_tol lu perm =
  let n = lu.Mat.rows in
  let data = lu.Mat.data in
  let sign = ref 1. in
  for k = 0 to n - 1 do
    (* partial pivoting: pick the largest |entry| in column k at/below row k *)
    let pivot_row = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs data.((i * n) + k) > Float.abs data.((!pivot_row * n) + k) then pivot_row := i
    done;
    if !pivot_row <> k then begin
      Mat.swap_rows lu k !pivot_row;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!pivot_row);
      perm.(!pivot_row) <- tmp;
      sign := -. !sign
    end;
    let kbase = k * n in
    let pivot = data.(kbase + k) in
    if Float.abs pivot < pivot_tol then raise (Singular k);
    for i = k + 1 to n - 1 do
      let ibase = i * n in
      let factor = data.(ibase + k) /. pivot in
      data.(ibase + k) <- factor;
      if factor <> 0. then
        for j = k + 1 to n - 1 do
          Array.unsafe_set data (ibase + j)
            (Array.unsafe_get data (ibase + j) -. (factor *. Array.unsafe_get data (kbase + j)))
        done
    done
  done;
  !sign

let factorize ?(pivot_tol = 1e-12) m =
  if m.Mat.rows <> m.Mat.cols then invalid_arg "Lu.factorize: matrix not square";
  let n = m.Mat.rows in
  let lu = Mat.copy m in
  let perm = Array.init n (fun i -> i) in
  let sign = eliminate ~pivot_tol lu perm in
  { lu; perm; sign }

let dim f = f.lu.Mat.rows

(* Re-run the elimination into [f]'s existing storage for a new same-sized
   matrix: the revised simplex refactorizes its basis hundreds of times per
   solve and reuses one allocation for all of them.  On a singular pivot
   the storage holds a partial elimination and [Error k] tells the caller
   to fall back; the factorization must not be used for solves until a
   subsequent refactorization succeeds. *)
let refactorize ?(pivot_tol = 1e-12) f m =
  if m.Mat.rows <> m.Mat.cols then invalid_arg "Lu.refactorize: matrix not square";
  let n = dim f in
  if m.Mat.rows <> n then invalid_arg "Lu.refactorize: dimension mismatch";
  Array.blit m.Mat.data 0 f.lu.Mat.data 0 (n * n);
  for i = 0 to n - 1 do
    f.perm.(i) <- i
  done;
  match eliminate ~pivot_tol f.lu f.perm with
  | sign ->
      f.sign <- sign;
      Stdlib.Ok ()
  | exception Singular k -> Stdlib.Error k

(* The triangular solves are the hot loop of the simplex refactorization
   (thousands of right-hand sides per refactor), hence the unsafe flat-array
   accesses. *)
let solve_factorized { lu; perm; _ } b =
  let n = lu.Mat.rows in
  if Array.length b <> n then invalid_arg "Lu.solve_factorized: dimension mismatch";
  let data = lu.Mat.data in
  let y = Array.init n (fun i -> b.(perm.(i))) in
  (* forward substitution: L y = P b *)
  for i = 0 to n - 1 do
    let base = i * n in
    let acc = ref (Array.unsafe_get y i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Array.unsafe_get data (base + j) *. Array.unsafe_get y j)
    done;
    Array.unsafe_set y i !acc
  done;
  (* back substitution: U x = y *)
  for i = n - 1 downto 0 do
    let base = i * n in
    let acc = ref (Array.unsafe_get y i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Array.unsafe_get data (base + j) *. Array.unsafe_get y j)
    done;
    Array.unsafe_set y i (!acc /. Array.unsafe_get data (base + i))
  done;
  y

(* Exception-free entry point: [Error k] names the elimination column whose
   pivot vanished, so callers can report the defect instead of unwinding. *)
let try_factorize ?pivot_tol m =
  match factorize ?pivot_tol m with
  | f -> Stdlib.Ok f
  | exception Singular k -> Stdlib.Error k

let solve ?pivot_tol a b = solve_factorized (factorize ?pivot_tol a) b

let try_solve ?pivot_tol a b =
  Result.map (fun f -> solve_factorized f b) (try_factorize ?pivot_tol a)

(* A' x = b with PA = LU: solve U' z = b (forward, diagonal from U), then
   L' w = z (backward, unit diagonal), then undo the permutation. *)
let solve_transposed { lu; perm; _ } b =
  let n = lu.Mat.rows in
  if Array.length b <> n then invalid_arg "Lu.solve_transposed: dimension mismatch";
  let data = lu.Mat.data in
  let z = Array.copy b in
  for i = 0 to n - 1 do
    let acc = ref (Array.unsafe_get z i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Array.unsafe_get data ((j * n) + i) *. Array.unsafe_get z j)
    done;
    Array.unsafe_set z i (!acc /. Array.unsafe_get data ((i * n) + i))
  done;
  for i = n - 1 downto 0 do
    let acc = ref (Array.unsafe_get z i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Array.unsafe_get data ((j * n) + i) *. Array.unsafe_get z j)
    done;
    Array.unsafe_set z i !acc
  done;
  let x = Array.make n 0. in
  for i = 0 to n - 1 do
    x.(perm.(i)) <- z.(i)
  done;
  x

let det { lu; sign; _ } =
  let acc = ref sign in
  for i = 0 to lu.Mat.rows - 1 do
    acc := !acc *. Mat.get lu i i
  done;
  !acc

let inverse ?pivot_tol m =
  let n = m.Mat.rows in
  let f = factorize ?pivot_tol m in
  let inv = Mat.zeros n n in
  for j = 0 to n - 1 do
    let e = Array.init n (fun i -> if i = j then 1. else 0.) in
    let x = solve_factorized f e in
    for i = 0 to n - 1 do
      Mat.set inv i j x.(i)
    done
  done;
  inv

let residual_norm a x b = Vec.norm_inf (Vec.sub (Mat.mul_vec a x) b)

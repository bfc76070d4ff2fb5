let fig1_f =
  ( "fig1.f",
    {|      program fig1
      integer, dimension :: a(1:200, 1:200)
      integer m
      m = 50
      call add(a, m)
      end

      subroutine add(a, m)
      integer, dimension :: a(1:200, 1:200)
      integer m, j
      do j = 1, m
        call p1(a, j)
        call p2(a, j)
      end do
      end subroutine

      subroutine p1(a, j)
      integer a(1:200, 1:200)
      integer j, i, k
      do i = 1, 100
        do k = 1, 100
          a(i, k) = i + k + j
        end do
      end do
      end

      subroutine p2(a, j)
      integer a(1:200, 1:200)
      integer j, i, k, s
      s = 0
      do i = 101, 200
        do k = 101, 200
          s = s + a(i, k)
        end do
      end do
      end
|} )

let matrix_c =
  ( "matrix.c",
    {|#include <stdio.h>
#define N 20

int aarr[N];

void fill() {
  int i;
  for (i = 0; i <= 7; i++) {
    aarr[i] = i;
  }
  for (i = 0; i <= 7; i++) {
    aarr[i + 1] = aarr[i];
  }
}

int main() {
  int i, s;
  s = 0;
  fill();
  for (i = 0; i <= 7; i++) {
    s = s + aarr[i];
  }
  for (i = 2; i <= 6; i += 2) {
    s = s + aarr[i];
  }
  printf("%d\n", s);
  return 0;
}
|} )

let stride_f =
  ( "stride.f",
    {|      program stride
      integer b(1:64)
      integer idx(1:64)
      integer i, n
      n = 32
      do i = 64, 2, -2
        b(i) = i
      end do
      do i = 1, n
        b(i) = b(i) + 1
      end do
      do i = 1, 10
        b(idx(i)) = 0
      end do
      end
|} )

let caf_f =
  ( "caf.f",
    {|      program cafhalo
      double precision halo(1:32)[*]
      double precision work(1:32)[*]
      integer i, me, np
      me = this_image()
      np = num_images()
      do i = 1, 32
        work(i) = i * me
      end do
      if (me .lt. np) then
        do i = 1, 8
          halo(i)[me + 1] = work(i)
        end do
      end if
      if (me .lt. np) then
        do i = 1, 8
          work(i + 24) = work(i)[me + 1]
        end do
      end if
      print *, work(1)
      end
|} )

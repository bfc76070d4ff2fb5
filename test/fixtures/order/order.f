      program order
      integer a(1:100), b(1:100, 1:100)
      integer g, n, m
      common /sz/ g
      g = 4
      n = 20
      m = 5
      call ms(a, b, n, m)
      end

      subroutine ms(a, b, n, m)
      integer a(1:100), b(1:100, 1:100)
      integer g, n, m, j
      common /sz/ g
      do j = n, 2*n - m
        a(j) = j
      end do
      do j = g, n + g
        b(j, g) = j
      end do
      call work(a, n, m)
      call inner(b, m, n)
      end

      subroutine work(x, p, q)
      integer x(1:100)
      integer p, q, k, i
      k = q + 1
      do i = k, p + k
        x(i) = x(i) + p - q
      end do
      end

      subroutine inner(y, r, s)
      integer y(1:100, 1:100)
      integer r, s, t, i, j
      t = r * 2
      do i = r, s + t
        do j = t, r + s
          y(i, j) = y(j, i) + t
        end do
      end do
      end

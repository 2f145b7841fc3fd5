package programs

import "fmt"

// APPSP returns an APPSP-style pseudo-application (§5.3, Figure 6): per
// iteration, a forward-elimination sweep along j for every plane k builds a
// work array c that is privatizable with respect to the k loop but not the
// j loop, followed by a z-direction relaxation. twoD selects the fixed 2-D
// distribution (*,*,BLOCK,BLOCK) over (j,k); otherwise the 1-D distribution
// (*,*,*,BLOCK) over k is used and the z-sweep brackets itself with
// redistributions (the transpose of the paper's sweepz).
func APPSP(nx, ny, nz, niter int, twoD bool) string {
	distr := "!hpf$ distribute (*,*,*,block) :: v"
	if twoD {
		distr = "!hpf$ distribute (*,*,block,block) :: v"
	}
	zsweep := `
!hpf$ redistribute v(*,*,block,*)
!hpf$ redistribute rsd(*,*,block,*)
  do k = 3, nz-1
    do j = 2, ny-1
      do i = 2, nx-1
        v(1,i,j,k) = v(1,i,j,k) + 0.2 * v(1,i,j,k-1)
        v(2,i,j,k) = v(2,i,j,k) + 0.2 * v(2,i,j,k-1)
      end do
    end do
  end do
!hpf$ redistribute v(*,*,*,block)
!hpf$ redistribute rsd(*,*,*,block)
`
	if twoD {
		// Under the 2-D distribution the z sweep runs in place (pipelined
		// over the k blocks).
		zsweep = `
  do k = 3, nz-1
    do j = 2, ny-1
      do i = 2, nx-1
        v(1,i,j,k) = v(1,i,j,k) + 0.2 * v(1,i,j,k-1)
        v(2,i,j,k) = v(2,i,j,k) + 0.2 * v(2,i,j,k-1)
      end do
    end do
  end do
`
	}
	return fmt.Sprintf(`
program appsp
parameter nx = %d
parameter ny = %d
parameter nz = %d
parameter niter = %d
real v(2,nx,ny,nz), rsd(2,nx,ny,nz), c(nx,ny,2)
integer i, j, k, it
!hpf$ align (m,i,j,k) with v(m,i,j,k) :: rsd
%s
do k = 1, nz
  do j = 1, ny
    do i = 1, nx
      v(1,i,j,k) = i * 0.01 + j * 0.02 + k * 0.03
      v(2,i,j,k) = i * 0.03 - j * 0.01 + k * 0.02
      rsd(1,i,j,k) = 0.0
      rsd(2,i,j,k) = 0.0
    end do
  end do
end do
do it = 1, niter
!hpf$ independent, new(c)
  do k = 2, nz-1
    do j = 3, ny-1
      do i = 2, nx-1
        rsd(1,i,j,k) = rsd(1,i,j-1,k) * 0.5 + v(1,i,j,k)
        c(i,j,1) = rsd(1,i,j,k) * 0.25 + v(1,i,j,k-1)
        c(i,j,2) = rsd(1,i,j-1,k) + v(2,i,j,k)
        rsd(2,i,j,k) = rsd(2,i,j,k) + c(i,j-1,1) * 0.5 + c(i,j,2) * 0.25
      end do
    end do
  end do
  do k = 2, nz-1
    do j = 2, ny-1
      do i = 2, nx-1
        v(1,i,j,k) = v(1,i,j,k) + 0.1 * rsd(1,i,j,k)
        v(2,i,j,k) = v(2,i,j,k) + 0.1 * rsd(2,i,j,k)
      end do
    end do
  end do
%s
end do
end
`, nx, ny, nz, niter, distr, zsweep)
}

// APPSPRef runs the same computation sequentially, returning the final v
// (flattened with dimension 1 fastest: ((k-1)*ny+(j-1))*nx*2 + (i-1)*2 +
// (m-1), matching the simulator's layout for v(2,nx,ny,nz)).
func APPSPRef(nx, ny, nz, niter int) []float64 {
	idx := func(m, i, j, k int) int {
		return (m - 1) + 2*((i-1)+nx*((j-1)+ny*(k-1)))
	}
	v := make([]float64, 2*nx*ny*nz)
	rsd := make([]float64, 2*nx*ny*nz)
	c := make([]float64, nx*ny*2)
	cidx := func(i, j, m int) int { return (i - 1) + nx*((j-1)+ny*(m-1)) }
	for k := 1; k <= nz; k++ {
		for j := 1; j <= ny; j++ {
			for i := 1; i <= nx; i++ {
				v[idx(1, i, j, k)] = float64(i)*0.01 + float64(j)*0.02 + float64(k)*0.03
				v[idx(2, i, j, k)] = float64(i)*0.03 - float64(j)*0.01 + float64(k)*0.02
			}
		}
	}
	for it := 0; it < niter; it++ {
		for k := 2; k <= nz-1; k++ {
			for j := 3; j <= ny-1; j++ {
				for i := 2; i <= nx-1; i++ {
					rsd[idx(1, i, j, k)] = rsd[idx(1, i, j-1, k)]*0.5 + v[idx(1, i, j, k)]
					c[cidx(i, j, 1)] = rsd[idx(1, i, j, k)]*0.25 + v[idx(1, i, j, k-1)]
					c[cidx(i, j, 2)] = rsd[idx(1, i, j-1, k)] + v[idx(2, i, j, k)]
					// (rsd + a) + b, as the source associates it: rsd += a + b
					// would round differently.
					rsd[idx(2, i, j, k)] = rsd[idx(2, i, j, k)] + c[cidx(i, j-1, 1)]*0.5 + c[cidx(i, j, 2)]*0.25
				}
			}
		}
		for k := 2; k <= nz-1; k++ {
			for j := 2; j <= ny-1; j++ {
				for i := 2; i <= nx-1; i++ {
					v[idx(1, i, j, k)] += 0.1 * rsd[idx(1, i, j, k)]
					v[idx(2, i, j, k)] += 0.1 * rsd[idx(2, i, j, k)]
				}
			}
		}
		for k := 3; k <= nz-1; k++ {
			for j := 2; j <= ny-1; j++ {
				for i := 2; i <= nx-1; i++ {
					v[idx(1, i, j, k)] += 0.2 * v[idx(1, i, j, k-1)]
					v[idx(2, i, j, k)] += 0.2 * v[idx(2, i, j, k-1)]
				}
			}
		}
	}
	return v
}

import random

import pytest
import sympy

from etacm.arith import PSI13, _strong_lucas_probable_prime, is_probable_prime, jacobi


class TestJacobi:
    def test_agrees_with_sympy(self):
        rng = random.Random(15)
        for _ in range(2000):
            n = rng.randrange(1, 2**rng.randrange(1, 65), 2)
            k = rng.randrange(1, 80)
            a = rng.randrange(-2**k, 2**k)  # 0 at small k
            assert jacobi(a, n) == sympy.jacobi_symbol(a, n), (a, n)

    def test_is_eulers_criterion_at_primes(self):
        for p in sympy.primerange(3, 500):
            for a in range(p):
                euler = pow(a, (p - 1) // 2, p)
                assert jacobi(a, p) == (-1 if euler == p - 1 else euler), (a, p)

    @pytest.mark.parametrize("n", [0, -3, 2, 10, -8])
    def test_needs_odd_positive_n(self, n):
        with pytest.raises(ValueError):
            jacobi(1, n)


class TestIsProbablePrime:
    def test_rejects_psi13(self):
        # the smallest strong pseudoprime to every prime base up to 41
        assert PSI13 == 1287836182261 * 2575672364521
        assert not is_probable_prime(PSI13)

    @pytest.mark.parametrize("n", [2**127 - 1, 2**255 - 19])
    def test_accepts_large_primes(self, n):
        assert is_probable_prime(n)

    def test_agrees_with_sympy_above_psi13(self):
        rng = random.Random(13)
        odd = [rng.randrange(2**80, 2**300) | 1 for _ in range(300)]
        primes = [sympy.nextprime(rng.randrange(2**80, 2**300)) for _ in range(30)]
        products = [sympy.nextprime(rng.randrange(2**40, 2**150))
                    * sympy.nextprime(rng.randrange(2**40, 2**150)) for _ in range(30)]
        for n in odd + primes + products:
            assert is_probable_prime(n) == sympy.isprime(n), n

    def test_agrees_with_sympy_below_psi13(self):
        rng = random.Random(14)
        for n in list(range(100)) + [rng.randrange(2**20, 2**80) for _ in range(300)]:
            assert is_probable_prime(n) == sympy.isprime(n), n

    def test_strong_lucas_pseudoprimes(self):
        # the composites below 20000 that pass the strong Lucas test with
        # Selfridge's parameters (OEIS A217255)
        fooled = [n for n in range(43, 20000, 2)
                  if _strong_lucas_probable_prime(n) and not sympy.isprime(n)]
        assert fooled == [5459, 5777, 10877, 16109, 18971]
        assert all(_strong_lucas_probable_prime(p) for p in sympy.primerange(43, 20000))

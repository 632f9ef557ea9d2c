"""Independent high-precision oracle for the multistable law (mpmath only).

Nothing here imports the ``multistable`` package.  A law is given by its
exponent groups ``[(W_g, alpha_g)]``, so that

    cf(theta) = exp(-sum_g W_g |theta|^alpha_g).

Two quadrature routes are implemented, both with mpmath tanh-sinh:

* ``real``: the real-axis integrals split at the zeros of the trigonometric
  kernel and refined geometrically toward theta = 0.  Feasible only while
  the number of zero panels before the cf has decayed stays small.
* ``ray``: the rotated contour theta = t e^{i phi}, 0 < phi < pi / (2 b), on
  which the Fourier kernel decays exponentially:

      D(x)          = (1/pi) Re  int_ray e^{i x theta} cf(theta) dtheta
      P(|I| > lam)  = (2/pi) Im  int_ray e^{i lam theta} (1 - cf(theta)) / theta dtheta

  Panels are geometric in t and never span more than half a turn of the
  integrand's phase, so no panel is oscillatory.

``mpmath.quadosc`` is deliberately not used: it disagreed with both routes
at the 1e-8 level on a mixed-exponent density.
"""

from __future__ import annotations

import mpmath as mp

DPS = 25
_CUT = 70  # integrand magnitude below e^-70 (4e-31) is dropped


def _dps(x) -> int:
    """Working precision: the kernel cancels about log10(x) digits at large x."""
    return DPS + 2 * max(0, int(mp.ceil(mp.log10(x)))) if x > 0 else DPS


class Law:
    def __init__(self, groups):
        self.groups = [(mp.mpf(w), mp.mpf(a)) for w, a in groups]
        self.b = max(a for _, a in self.groups)
        self.a = min(a for _, a in self.groups)

    # -- real axis ----------------------------------------------------------

    def _modular(self, t):
        return mp.fsum(w * t ** a for w, a in self.groups)

    def _theta_max(self):
        """cf(theta) < e^-_CUT beyond this point."""
        hi = mp.mpf(1)
        while self._modular(hi) < _CUT:
            hi *= 2
        return mp.findroot(lambda t: self._modular(t) - _CUT, (hi / 2, hi), solver="anderson")

    def real_panels(self, omega, zeros_offset):
        """Edges: geometric toward 0, then the kernel's zeros up to theta_max."""
        tmax = self._theta_max()
        first = (zeros_offset * mp.pi / omega) if omega > 0 else tmax
        first = min(first, tmax)
        edges = [first / mp.mpf(2) ** k for k in range(60, 0, -1)] + [first]
        if omega > 0:
            k = 1
            while True:
                z = (zeros_offset + k) * mp.pi / omega
                if z >= tmax:
                    break
                edges.append(z)
                k += 1
                if k > 4000:
                    raise ValueError("real-axis route infeasible")
        if edges[-1] < tmax:
            edges.append(tmax)
        return [mp.mpf(0)] + edges

    def real_feasible(self, omega, limit=600):
        with mp.workdps(DPS):
            return omega * self._theta_max() / mp.pi <= limit

    def density_real(self, x):
        with mp.workdps(_dps(mp.mpf(x))):
            x = mp.mpf(x)
            pts = self.real_panels(x, mp.mpf(1) / 2)
            f = lambda t: mp.cos(x * t) * mp.exp(-self._modular(t))
            val, err = mp.quad(f, pts, error=True)
            return val / mp.pi, err / mp.pi

    def tail_real(self, lam):
        """Gil-Pelaez: 1 - (2/pi) int sin(lam t) cf(t) / t dt."""
        with mp.workdps(_dps(mp.mpf(lam))):
            lam = mp.mpf(lam)
            pts = self.real_panels(lam, mp.mpf(1))

            def f(t):
                if t == 0:
                    return lam
                return mp.sin(lam * t) / t * mp.exp(-self._modular(t))

            val, err = mp.quad(f, pts, error=True)
            return 1 - 2 * val / mp.pi, 2 * err / mp.pi

    # -- rotated contour ------------------------------------------------------

    def _ray(self):
        phi = mp.pi / (4 * self.b)
        cs = [(w, a, mp.cos(a * phi), mp.sin(a * phi)) for w, a in self.groups]
        return phi, cs

    def ray_panels(self, omega, decay_of_cf):
        """Geometric edges in t; each panel spans < 2 pi of phase and < x4 in t."""
        phi, cs = self._ray()
        s, c = mp.sin(phi), mp.cos(phi)
        scale = min([mp.mpf(1)] + ([1 / omega] if omega > 0 else []))
        edges = [mp.mpf(0), scale * mp.mpf(10) ** -20]
        t = edges[-1]
        while True:
            cf_decay = mp.fsum(w * t ** a * ca for w, a, ca, _ in cs)
            decay = omega * t * s + (cf_decay if decay_of_cf else 0)
            if decay > _CUT:
                break
            dphase = omega * c
            if cf_decay < _CUT:  # the cf's phase matters only while |cf| does
                dphase += mp.fsum(w * a * t ** (a - 1) * sa for w, a, _, sa in cs)
            step = min(3 * t, 2 * mp.pi / dphase) if dphase > 0 else 3 * t
            t = t + step
            edges.append(t)
            if len(edges) > 20000:
                raise ValueError("ray route did not terminate")
        return phi, cs, edges

    def density_ray(self, x):
        with mp.workdps(_dps(mp.mpf(x))):
            x = mp.mpf(x)
            phi, cs, pts = self.ray_panels(x, True)
            s, c = mp.sin(phi), mp.cos(phi)

            def f(t):
                r = mp.fsum(w * t ** a * ca for w, a, ca, _ in cs)
                i = mp.fsum(w * t ** a * sa for w, a, _, sa in cs)
                return mp.exp(-(r + x * t * s)) * mp.cos(x * t * c - i + phi)

            val, err = mp.quad(f, pts, error=True)
            return val / mp.pi, err / mp.pi

    def tail_ray(self, lam):
        with mp.workdps(_dps(mp.mpf(lam))):
            lam = mp.mpf(lam)
            phi, cs, pts = self.ray_panels(lam, False)
            s, c = mp.sin(phi), mp.cos(phi)

            def f(t):
                if t == 0:
                    return mp.mpf(0)
                r = mp.fsum(w * t ** a * ca for w, a, ca, _ in cs)
                i = mp.fsum(w * t ** a * sa for w, a, _, sa in cs)
                # 1 - cf = re + j im, written without cancellation for small t
                er = mp.exp(-r)
                re = -mp.expm1(-r) + 2 * er * mp.sin(i / 2) ** 2
                im = er * mp.sin(i)
                beta = lam * t * c
                return mp.exp(-lam * t * s) * (mp.cos(beta) * im + mp.sin(beta) * re) / t

            val, err = mp.quad(f, pts, error=True)
            return 2 * val / mp.pi, 2 * err / mp.pi

    # -- closed forms -----------------------------------------------------------

    def asymptote(self, lam):
        """T(lam) = sum_g W_g C(alpha_g) lam^-alpha_g."""
        with mp.workdps(DPS):
            lam = mp.mpf(lam)
            return mp.fsum(w * tail_constant(a) * lam ** -a for w, a in self.groups)


def tail_constant(g):
    """C(g) = (1 - g) / (Gamma(2 - g) cos(pi g / 2)), 2/pi at g = 1."""
    with mp.workdps(DPS):
        g = mp.mpf(g)
        if g == 1:
            return 2 / mp.pi
        return (1 - g) / (mp.gamma(2 - g) * mp.cos(mp.pi * g / 2))

"""Independent Bloch-vector integration of the fig2 closed loop.

A reference for the matrix engine (`qmfc.sde`, `qmfc.ensemble`) that shares
no code with it.  The qubit is its Bloch vector r; one step of length dt
applies three exact sub-flows in turn, each set up from the state at the
start of the step:

1. Measurement of Q = n.sigma, with n at Bloch angle (theta, phi) from r/|r|,
   by the exponential Kraus operator exp(a Q), a = sqrt(2k) dy~ and
   dy~ = 2 sqrt(2k) (n.r) dt + dW.  With z = n.r and r_perp = r - z n,

       z' = (sinh 2a + z cosh 2a) / D,  r_perp' = r_perp / D,
       D = cosh 2a + z sinh 2a.

2. z-dephasing, which shrinks r_x and r_y by exp(-4 beta dt).
3. Rotation by |Omega| dt about Omega = 2 omega e_z + sqrt(2 mu) u, from
   H0 = omega sz and the feedback H_fb = sqrt(mu / 2) u.sigma
   (Tr[H_fb^2] = mu).  u = r x t / |r x t| turns r toward the target t along
   the great circle.  When r points exactly away from the (equatorial)
   target, u = e_z, the axis of the package's second-order branch there;
   when it points at the target, H_fb = 0.

To first order in dt this is the conditioned master equation of `qmfc.sde`:
drift -4k(r - (n.r) n) - 4 beta r_xy + 2 h x r, noise
2 sqrt(2k)(n - (n.r) r) dW.  The scheme and the noise streams differ from
the engine's, so agreement of the ensemble time averages checks the engine
rather than restating it.

The local frame (e1, e2, r/|r|) is the image of (x, y, z) under the rotation
that takes e_z to r/|r| about e_z x r: for r/|r| at polar angles (Theta, Phi),
the rotation by Theta about (-sin Phi, cos Phi, 0).  That is the engine's
frame (`qmfc.sde._relative_axis`), which the engine computes from the angles
by trig, and this module from r by arithmetic.  The engine keeps its previous
frame below |r| = `qmfc.sde.BASIS_DEGEN_TOL`; this module has no such rule.
Both are discontinuous at Theta = pi, where the rotation axis turns with Phi.

Run as a script it prints the time-averaged purity and target overlap per
measurement angle for a list of feedback strengths and, optionally, a
measurement constant (`python tests/bloch_reference.py 10,600 [k]`), in the
fig2 setup: k = 2 by default, beta = 0.4, omega = pi, start and target at
+x, R = 1000, dt = 1e-4, t in [0, 2], seed 0.
"""

import sys

import numpy as np


def measured_axis(r, theta, phi=0.0):
    """Unit vector at Bloch angle (theta, phi) from r / |r|; r has shape (3, ...).

    It is sin(theta) (cos(phi) e1 + sin(phi) e2) + cos(theta) r / |r| with
    e1 = (1 - ux^2 / w, -ux uy / w, -ux), e2 = (-ux uy / w, 1 - uy^2 / w, -uy),
    u = r / |r| and w = 1 + uz.
    """
    ux, uy, uz = r / np.sqrt(np.sum(r * r, axis=0))
    c1, c2 = np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi)
    c3 = np.cos(theta)
    tilt = c1 * ux + c2 * uy
    p = tilt / (1.0 + uz)
    return np.array([c1 + (c3 - p) * ux, c2 + (c3 - p) * uy, c3 * uz - tilt])


def target(t, omega):
    """Bloch vector of the +x target precessing about z at 2 omega."""
    return np.array([np.cos(2.0 * omega * t), np.sin(2.0 * omega * t), 0.0])


def bloch_step(r, t, dW, *, theta, phi, k, mu, beta, omega, dt):
    """Advance Bloch vectors r (shape (3, R)) from time t by one step."""
    x, y, z = r
    nx, ny, nz = measured_axis(r, theta, phi)
    tx, ty = target(t, omega)[:2]
    # feedback axis u = r x t / |r x t|, with e_z when r points away from t
    ux, uy, uz = -z * ty, z * tx, x * ty - y * tx
    size = np.sqrt(ux * ux + uy * uy + uz * uz)
    active = size > 1e-8
    gain = np.sqrt(2.0 * mu) / np.where(active, size, np.inf)
    away = ~active & (x * tx + y * ty < 0)
    wx, wy = gain * ux, gain * uy
    wz = gain * uz + np.sqrt(2.0 * mu) * away + 2.0 * omega

    q = nx * x + ny * y + nz * z
    a = np.sqrt(2.0 * k) * (2.0 * np.sqrt(2.0 * k) * q * dt + dW)
    ch, sh = np.cosh(2.0 * a), np.sinh(2.0 * a)
    inv_d = 1.0 / (ch + q * sh)
    along = (sh + q * ch) * inv_d - q * inv_d
    damp = np.exp(-4.0 * beta * dt)
    x = (x * inv_d + along * nx) * damp
    y = (y * inv_d + along * ny) * damp
    z = z * inv_d + along * nz

    rate = np.sqrt(wx * wx + wy * wy + wz * wz)
    inv_rate = 1.0 / np.where(rate > 0, rate, 1.0)
    wx, wy, wz = wx * inv_rate, wy * inv_rate, wz * inv_rate
    c, s = np.cos(rate * dt), np.sin(rate * dt)
    dot = (wx * x + wy * y + wz * z) * (1.0 - c)
    return np.array([
        x * c + (wy * z - wz * y) * s + wx * dot,
        y * c + (wz * x - wx * z) * s + wy * dot,
        z * c + (wx * y - wy * x) * s + wz * dot,
    ])


def theta_profile(theta_grid, *, k, mu, beta, omega, realizations, dt, t_end,
                  stat_stride, seed=0, phi=0.0):
    """Rows (theta, time_avg_purity, se, time_avg_overlap, se), as
    `qmfc.ensemble.theta_experiment` reports them, for the state starting at
    the target.  Averages run over every stat_stride-th step, ends included."""
    n_steps = int(round(t_end / dt))
    rows = []
    for i, theta in enumerate(theta_grid):
        rng = np.random.default_rng([seed, i])
        r = np.zeros((3, realizations))
        r[:, :] = target(0.0, omega)[:, None]
        pur_sum = np.zeros(realizations)
        ovl_sum = np.zeros(realizations)

        def accumulate(t):
            pur_sum[:] += 0.5 * (1.0 + np.sum(r * r, axis=0))
            ovl_sum[:] += 0.5 * (1.0 + target(t, omega) @ r)

        accumulate(0.0)
        for step in range(n_steps):
            dW = rng.standard_normal(realizations) * np.sqrt(dt)
            r = bloch_step(r, step * dt, dW, theta=theta, phi=phi, k=k, mu=mu,
                           beta=beta, omega=omega, dt=dt)
            if (step + 1) % stat_stride == 0:
                accumulate((step + 1) * dt)
        n_avg = n_steps // stat_stride + 1
        pur, ovl = pur_sum / n_avg, ovl_sum / n_avg
        root = np.sqrt(realizations)
        rows.append((float(theta), pur.mean(), pur.std(ddof=1) / root,
                     ovl.mean(), ovl.std(ddof=1) / root))
    return rows


if __name__ == "__main__":
    mus = [float(v) for v in (sys.argv[1] if len(sys.argv) > 1 else "10,600").split(",")]
    k = float(sys.argv[2]) if len(sys.argv) > 2 else 2.0
    grid = np.linspace(0.0, np.pi / 2, 5)
    print("k,mu,theta,purity,purity_se,overlap,overlap_se")
    for mu in mus:
        for row in theta_profile(grid, k=k, mu=mu, beta=0.4, omega=np.pi,
                                 realizations=1000, dt=1e-4, t_end=2.0,
                                 stat_stride=10):
            print(f"{k:g},{mu:g}," + ",".join(f"{v:.6f}" for v in row), flush=True)

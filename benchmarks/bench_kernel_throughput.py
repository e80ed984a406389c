"""Real-hardware throughput of the GCM kernels.

Everything else in this suite measures *virtual* (simulated-1999) time;
this benchmark measures the actual NumPy kernels on the present host,
using the analytic flop counts — i.e. it re-measures the paper's "Fps"
for the machine the reproduction runs on.  The paper's PII/400 sustained
50 MFlop/s on the PS kernel; a modern core through NumPy typically
sustains two to three orders of magnitude more, which is itself the
cleanest statement of why the paper's *interconnect* analysis, not its
absolute numbers, is the durable contribution.
"""

from repro.gcm.eos import LinearEOS
from repro.gcm.grid import Grid, GridParams
from repro.gcm.operators import FlopCounter
from repro.gcm.prognostic import DynamicsParams, compute_g_terms
from repro.parallel.tiling import Decomposition


def make_setup(nx=128, ny=64, nz=10):
    g = Grid(
        GridParams(nx=nx, ny=ny, nz=nz, lat0=-80, lat1=80),
        Decomposition(nx, ny, 1, 1, olx=3),
    )
    import numpy as np

    rng = np.random.default_rng(0)
    t = g.decomp.tile(0)
    shape = t.shape3d(nz)
    u = 0.1 * rng.standard_normal(shape)
    v = 0.1 * rng.standard_normal(shape)
    theta = 10.0 + rng.standard_normal(shape)
    salt = 35.0 + 0.1 * rng.standard_normal(shape)
    eos = LinearEOS()
    b = eos.buoyancy(theta, salt)
    return g, u, v, theta, salt, b


def test_bench_ps_kernel_throughput(benchmark):
    g, u, v, theta, salt, b = make_setup()
    params = DynamicsParams()

    def kernel():
        fc = FlopCounter()
        compute_g_terms(0, g, u, v, theta, salt, b, params, fc)
        return fc.total

    flops = benchmark(kernel)
    elapsed = benchmark.stats.stats.mean
    rate = flops / elapsed
    print(
        f"\nPS kernel: {flops / 1e6:.1f} Mflop (counted) in {elapsed * 1e3:.1f} ms "
        f"-> {rate / 1e6:.0f} MFlop/s on this host (paper's PII/400: 50 MFlop/s, "
        f"speedup x{rate / 50e6:.0f})"
    )
    # any post-2015 machine beats the PII by a wide margin
    assert rate > 50e6


def test_bench_eos_throughput(benchmark):
    g, u, v, theta, salt, _ = make_setup()
    eos = LinearEOS()
    result = benchmark(eos.buoyancy, theta, salt)
    assert result.shape == theta.shape


def test_bench_exchange_throughput(benchmark):
    """Real time of the functional halo exchange (pure NumPy copies)."""
    import numpy as np

    from repro.parallel.exchange import exchange_halos

    d = Decomposition(128, 64, 4, 4, olx=3)
    rng = np.random.default_rng(1)
    fields = [rng.standard_normal(t.shape3d(10)) for t in d.tiles]

    benchmark(exchange_halos, d, fields)
    # sanity: the exchange must be far cheaper than the kernel itself
    assert benchmark.stats.stats.mean < 0.1

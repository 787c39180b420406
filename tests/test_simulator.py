"""Event-driven simulator: determinism, conservation, accounting, statistics."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from bikeshare_meanfield import core, simulator
from bikeshare_meanfield import (
    SimConfig,
    SimReport,
    SimState,
    SystemParams,
    Trajectory,
    Walker,
    empirical_vs_ode,
    independence_statistic,
    simulate,
    solve_fixed_point,
)
from bikeshare_meanfield.errors import (
    ConfigError,
    EmptyMeasurementError,
    InvariantViolationError,
)

SMALL = SystemParams(lam=2.0, mu=3.0, gamma=1.0, omega=2, capacity_c=2,
                     capacity_k=4, n_stations=50, delta=0.1)
FIG5 = SystemParams(lam=15.0, mu=8.0, gamma=0.25, omega=1, capacity_c=30,
                    capacity_k=50, n_stations=300, delta=0.1)
WALK_HEAVY = SystemParams(lam=15.0, mu=8.0, gamma=2.0, omega=3, capacity_c=3,
                          capacity_k=5, n_stations=200, delta=0.1)


def reports_equal(a: SimReport, b: SimReport) -> bool:
    same = (
        np.array_equal(a.time_avg_measure, b.time_avg_measure)
        and np.array_equal(a.joint_counts, b.joint_counts)
        and a.event_counts == b.event_counts
        and a.final_state == b.final_state
    )
    if a.trajectory is None or b.trajectory is None:
        return same and a.trajectory is b.trajectory
    return (same
            and np.array_equal(a.trajectory.times, b.trajectory.times)
            and np.array_equal(a.trajectory.states, b.trajectory.states))


class _FrozenStream:
    """The buffered draws of the closure-based event loop, kept as the reference."""

    def __init__(self, seed_seq):
        self._gen = np.random.Generator(np.random.PCG64(seed_seq))
        self._u = self._gen.random(simulator._BLOCK).tolist()
        self._iu = 0
        self._e = self._gen.standard_exponential(simulator._BLOCK).tolist()
        self._ie = 0

    def uniform(self):
        if self._iu >= simulator._BLOCK:
            self._u = self._gen.random(simulator._BLOCK).tolist()
            self._iu = 0
        self._iu += 1
        return self._u[self._iu - 1]

    def exponential(self):
        if self._ie >= simulator._BLOCK:
            self._e = self._gen.standard_exponential(simulator._BLOCK).tolist()
            self._ie = 0
        self._ie += 1
        return self._e[self._ie - 1]


def _frozen_simulate(config: SimConfig) -> SimReport:
    """The event loop as it was written with one stream object per stream and
    closures for the level flushes; the inlined loop must match it bit for bit."""
    p = config.params
    n, cap_k, cap_c, omega = p.n_stations, p.capacity_k, p.capacity_c, p.omega
    arrival_rate = n * p.lam
    s_time, s_arr, s_walk, s_ride = (_FrozenStream(ss)
                                     for ss in np.random.SeedSequence(config.seed).spawn(4))
    bikes = [cap_c] * n
    counts = [0] * (cap_k + 1)
    counts[cap_c] = n
    walker_station, walker_left, ride_excl = [], [], []
    w0 = config.t_warmup
    horizon = config.t_warmup + config.t_measure
    acc = [0.0] * (cap_k + 1)
    mark = [0.0] * (cap_k + 1)
    joint = np.zeros((cap_k + 1, cap_k + 1))
    j0 = j1 = cap_c
    jmark = 0.0
    sampling = config.sample_interval is not None
    sample_index = 0
    traj_times, traj_states = [], []
    ec = dict.fromkeys(("arrivals", "rentals", "abandonments", "walk_starts", "re_rides",
                        "returns", "walks_completed", "walk_rentals"), 0)

    def flush_level(k, tn):
        lo = mark[k] if mark[k] > w0 else w0
        if tn > lo:
            acc[k] += counts[k] * (tn - lo)
        mark[k] = tn

    def move_station(st, k_old, k_new, tn):
        nonlocal j0, j1, jmark
        flush_level(k_old, tn)
        flush_level(k_new, tn)
        counts[k_old] -= 1
        counts[k_new] += 1
        if st < 2:
            lo = jmark if jmark > w0 else w0
            if tn > lo:
                joint[j0, j1] += tn - lo
            jmark = tn
            if st == 0:
                j0 = k_new
            else:
                j1 = k_new

    def remove(lists, j):
        for values in lists:
            values[j] = values[-1]
            values.pop()

    t = 0.0
    events = 0
    while True:
        n_walk, n_ride = len(walker_left), len(ride_excl)
        rate_walk = p.gamma * n_walk
        total_rate = arrival_rate + rate_walk + p.mu * n_ride
        t_next = t + s_time.exponential() / total_rate
        if sampling:
            stop = t_next if t_next < horizon else horizon * (1.0 + 1e-15)
            while sample_index * config.sample_interval < stop:
                traj_times.append(sample_index * config.sample_interval)
                traj_states.append([c / n for c in counts])
                sample_index += 1
        if t_next >= horizon:
            break
        u = s_time.uniform() * total_rate
        if u < arrival_rate:
            ec["arrivals"] += 1
            i = int(s_arr.uniform() * n)
            if bikes[i] > 0:
                bikes[i] -= 1
                move_station(i, bikes[i] + 1, bikes[i], t_next)
                ride_excl.append(-1)
                ec["rentals"] += 1
            elif omega > 0:
                walker_station.append(i)
                walker_left.append(omega)
                ec["walk_starts"] += 1
            else:
                ec["abandonments"] += 1
        elif u < arrival_rate + rate_walk:
            ec["walks_completed"] += 1
            j = int(s_walk.uniform() * n_walk)
            m = int(s_walk.uniform() * (n - 1))
            d = m + 1 if m >= walker_station[j] else m
            if bikes[d] > 0:
                bikes[d] -= 1
                move_station(d, bikes[d] + 1, bikes[d], t_next)
                ride_excl.append(-1)
                ec["rentals"] += 1
                ec["walk_rentals"] += 1
                remove((walker_station, walker_left), j)
            elif walker_left[j] == 1:
                ec["abandonments"] += 1
                remove((walker_station, walker_left), j)
            else:
                walker_left[j] -= 1
                walker_station[j] = d
        else:
            j = int(s_ride.uniform() * n_ride)
            avoid = ride_excl[j]
            if avoid < 0:
                d = int(s_ride.uniform() * n)
            else:
                m = int(s_ride.uniform() * (n - 1))
                d = m + 1 if m >= avoid else m
            if bikes[d] < cap_k:
                bikes[d] += 1
                move_station(d, bikes[d] - 1, bikes[d], t_next)
                remove((ride_excl,), j)
                ec["returns"] += 1
            else:
                ec["re_rides"] += 1
                ride_excl[j] = d
        events += 1
        t = t_next

    for k in range(cap_k + 1):
        flush_level(k, horizon)
    lo = jmark if jmark > w0 else w0
    if horizon > lo:
        joint[j0, j1] += horizon - lo
    ec.update(walkers_in_flight=len(walker_left), events=events)
    return SimReport(
        time_avg_measure=np.array(acc) / (config.t_measure * n),
        trajectory=Trajectory(np.array(traj_times), np.array(traj_states)) if sampling else None,
        joint_counts=joint,
        event_counts=ec,
        measured_time=config.t_measure,
        final_state=SimState(station_bikes=bikes,
                             walkers=[Walker(s, w) for s, w in zip(walker_station, walker_left)],
                             riding=len(ride_excl), clock=horizon),
        config=config,
    )


class TestConfig:
    def test_from_dict(self):
        data = SMALL.to_dict()
        data.update(seed=7, t_warmup=1.0, t_measure=4.0, sample_interval=0.5)
        config = SimConfig.from_dict(data)
        assert config.params == SMALL
        assert config.seed == 7
        assert config.sample_interval == 0.5

    def test_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(params=SMALL, seed=1, t_measure=0.0)
        with pytest.raises(ConfigError):
            SimConfig(params=SMALL, seed=1, t_measure=1.0, sample_interval=0.0)
        with pytest.raises(ConfigError):
            SimConfig(params=SMALL, seed=-1, t_measure=1.0)

    @pytest.mark.parametrize("times", [
        dict(t_measure=1.0, t_warmup=float("nan")),
        dict(t_measure=1.0, t_warmup=float("inf")),
        dict(t_measure=float("inf")),
        dict(t_measure=float("nan")),
        dict(t_measure=1.0, sample_interval=float("inf")),
        dict(t_measure=1.0, t_warmup="0.5"),
        dict(t_measure=None),
    ])
    def test_non_finite_times_rejected(self, times):
        # a NaN or infinite horizon would never end the event loop
        with pytest.raises(ConfigError, match="must be a finite number"):
            SimConfig(params=SMALL, seed=1, **times)

    def test_times_stored_as_floats(self):
        config = SimConfig(params=SMALL, seed=1, t_measure=2, t_warmup=1, sample_interval=1)
        assert (config.t_measure, config.t_warmup, config.sample_interval) == (2.0, 1.0, 1.0)
        assert all(type(v) is float for v in (config.t_measure, config.t_warmup,
                                               config.sample_interval))

    def test_missing_seed_rejected(self):
        data = SMALL.to_dict()
        data["t_measure"] = 1.0
        with pytest.raises(ConfigError):
            SimConfig.from_dict(data)

    @pytest.mark.parametrize("seed", [1.7, "3", True, np.bool_(True), 2 ** 64, -1])
    def test_seed_read_strictly(self, seed):
        # SimConfig used to run 1.7 and True as seed 1, and "3" as seed 3, whether built,
        # read from a mapping or copied onto another seed
        config = SimConfig(params=SMALL, seed=0, t_measure=1.0)
        with pytest.raises(ConfigError, match="seed must be an integer"):
            dataclasses.replace(config, seed=seed)
        with pytest.raises(ConfigError, match="seed must be an integer"):
            SimConfig(params=SMALL, seed=seed, t_measure=1.0)
        with pytest.raises(ConfigError, match="seed must be an integer"):
            SimConfig.from_dict({**SMALL.to_dict(), "seed": seed, "t_measure": 1.0})

    def test_numpy_integer_seed_accepted(self):
        config = SimConfig(params=SMALL, seed=np.uint64(7), t_measure=1.0)
        assert config.seed == 7 and type(config.seed) is int
        reports = [simulate(dataclasses.replace(config, seed=s)) for s in np.array([5, 6])]
        assert [type(r.config.seed) for r in reports] == [int, int]
        assert [r.config.seed for r in reports] == [5, 6]
        assert reports_equal(reports[0], simulate(dataclasses.replace(config, seed=5)))

    def test_fractional_seed_rejected(self):
        data = SMALL.to_dict()
        data.update(seed=1.7, t_measure=1.0)
        with pytest.raises(ConfigError):
            SimConfig.from_dict(data)

    def test_string_time_rejected(self):
        data = SMALL.to_dict()
        data.update(seed=1, t_measure="1.0")
        with pytest.raises(ConfigError):
            SimConfig.from_dict(data)


class TestDeterminism:
    def test_identical_seed_identical_report(self):
        config = SimConfig(params=SMALL, seed=123, t_warmup=1.0, t_measure=5.0,
                           sample_interval=0.25)
        assert reports_equal(simulate(config), simulate(config))

    def test_different_seed_differs(self):
        c1 = SimConfig(params=SMALL, seed=1, t_measure=5.0)
        c2 = SimConfig(params=SMALL, seed=2, t_measure=5.0)
        assert not np.array_equal(simulate(c1).time_avg_measure,
                                  simulate(c2).time_avg_measure)

    def test_sampling_does_not_perturb_events(self):
        bare = SimConfig(params=SMALL, seed=9, t_measure=5.0)
        sampled = SimConfig(params=SMALL, seed=9, t_measure=5.0, sample_interval=0.1)
        a, b = simulate(bare), simulate(sampled)
        assert a.event_counts == b.event_counts
        assert np.array_equal(a.time_avg_measure, b.time_avg_measure)
        assert a.final_state == b.final_state

    def test_identical_gap_bitwise(self):
        config = SimConfig(params=SMALL, seed=17, t_measure=3.0, sample_interval=0.2)
        assert empirical_vs_ode(config) == empirical_vs_ode(config)


class TestInlinedLoop:
    CASES = {
        "fig5": SimConfig(params=dataclasses.replace(FIG5, n_stations=60), seed=0,
                          t_warmup=1.0, t_measure=3.0),
        # long enough for every stream to draw past its first block
        "walk-heavy": SimConfig(params=WALK_HEAVY, seed=0, t_warmup=1.0, t_measure=6.0),
        "sampled": SimConfig(params=SMALL, seed=0, t_warmup=1.0, t_measure=5.0,
                             sample_interval=0.25),
        "omega-0": SimConfig(params=SystemParams(lam=5.0, mu=1.0, gamma=1.0, omega=0,
                                                 capacity_c=1, capacity_k=2, n_stations=20,
                                                 delta=0.1),
                             seed=0, t_measure=20.0),
        "two-stations": SimConfig(params=dataclasses.replace(SMALL, n_stations=2), seed=0,
                                  t_warmup=2.0, t_measure=100.0, sample_interval=1.0),
        # some 200 level changes in the warm-up and at most two in the window, so
        # at seeds 0, 3 and 11 an occupied level never changes inside it and the
        # final flush reads a mark left at the warm-up end (at seed 3 the joint
        # cell's too)
        "two-stations-long-warmup": SimConfig(params=dataclasses.replace(SMALL, n_stations=2),
                                              seed=0, t_warmup=30.0, t_measure=0.25),
        "sampled-no-warmup": SimConfig(params=SMALL, seed=0, t_measure=5.0,
                                       sample_interval=0.25),
    }

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bit_identical_to_frozen_loop(self, case, seed):
        config = dataclasses.replace(self.CASES[case], seed=seed)
        new, old = simulate(config), _frozen_simulate(config)
        assert new.to_dict() == old.to_dict()
        # joint counts, final state and trajectory arrays, exactly
        assert reports_equal(new, old)

    # at 2 or 64 draws a block every stream refills hundreds of times and runs
    # end on block boundaries (_FrozenStream reads _BLOCK at call time); the
    # event totals, read from the stream indices, add up on every case
    @pytest.mark.parametrize("block", [2, 64])
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_small_blocks_bit_identical_to_frozen_loop(self, monkeypatch, case, seed, block):
        monkeypatch.setattr(simulator, "_BLOCK", block)
        config = dataclasses.replace(self.CASES[case], seed=seed)
        new, old = simulate(config), _frozen_simulate(config)
        assert new.to_dict() == old.to_dict()
        assert reports_equal(new, old)
        ec = new.event_counts
        assert ec["events"] == (ec["arrivals"] + ec["walks_completed"] + ec["returns"]
                                + ec["re_rides"])

    def test_every_stream_refills(self):
        # draws per stream: timing one uniform per event and one exponential per
        # event plus the last, arrivals one each, walk and ride completions two each
        block = simulator._BLOCK
        ec = simulate(dataclasses.replace(self.CASES["walk-heavy"], seed=3)).event_counts
        rides = ec["returns"] + ec["re_rides"]
        assert min(ec["events"], ec["arrivals"], 2 * ec["walks_completed"], 2 * rides) > block

    def test_deep_check_cadence(self, monkeypatch):
        calls = []
        real = simulator._deep_check

        def counted(*args):
            calls.append(1)
            real(*args)

        monkeypatch.setattr(simulator, "_deep_check", counted)
        params = dataclasses.replace(SMALL, n_stations=1000)
        events = simulate(SimConfig(params=params, seed=2, t_warmup=1.0,
                                    t_measure=30.0)).event_counts["events"]
        assert events >> 16 >= 2
        assert len(calls) == (events >> 16) + 1

    @pytest.mark.parametrize("block", [2, 64])
    def test_deep_check_cadence_at_small_blocks(self, monkeypatch, block):
        # the deep check runs at timing refills, still once every 2**16 events
        monkeypatch.setattr(simulator, "_BLOCK", block)
        self.test_deep_check_cadence(monkeypatch)


class TestSampleSizing:
    PARAMS = dataclasses.replace(SMALL, n_stations=10)

    @pytest.mark.parametrize("interval", [0.1, 0.25, 0.3, 1 / 3, 0.7, 1e-3])
    def test_refusal_counts_every_sample(self, monkeypatch, interval):
        # a limit one sample short of the run's own samples refuses it before
        # sampling; one sample more fits, so the count is off by at most one
        config = SimConfig(params=self.PARAMS, seed=1, t_warmup=0.5, t_measure=3.0,
                           sample_interval=interval)
        nbytes = 8 * (self.PARAMS.capacity_k + 2) * len(simulate(config).trajectory.times)
        monkeypatch.setattr(core, "_array_byte_limit", lambda: nbytes - 1)
        with pytest.raises(ConfigError, match=r"^samples=\d+ is too large to simulate"):
            simulate(config)
        monkeypatch.setattr(core, "_array_byte_limit",
                            lambda: nbytes + 8 * (self.PARAMS.capacity_k + 2))
        simulate(config)

    def test_unsampled_run_needs_no_sample_room(self, monkeypatch):
        # room for the joint occupancy matrix only
        monkeypatch.setattr(core, "_array_byte_limit", lambda: 8 * 5 ** 2)
        config = SimConfig(params=self.PARAMS, seed=1, t_measure=1.0)
        assert simulate(config).trajectory is None
        with pytest.raises(ConfigError, match="samples=6 "):
            simulate(dataclasses.replace(config, sample_interval=0.25))

    # intervals that divide the horizon 1.5 exactly and the floats one ulp either
    # side of them, then horizons t_warmup + t_measure that round (0.1 + 0.2 is
    # 0.30000000000000004 and 0.7 + 0.1 is 0.7999999999999999, whose sample at 0.8
    # still counts): the samples stay within the sized count and equal, count and
    # bits, those of the loop that collected them in lists
    @pytest.mark.parametrize("t_warmup,t_measure,interval", [
        *((0.5, 1.0, float(np.nextafter(dt, toward)))
          for dt in (0.25, 0.1875, 0.5, 1.5) for toward in (0.0, dt, 2.0)),
        (0.1, 0.2, 0.1), (0.2, 0.1, 0.1), (0.1, 0.2, 0.3), (0.7, 0.1, 0.1), (0.7, 0.1, 0.8),
        (0.1, 0.2, 0.1 + 0.2),
    ])
    def test_samples_fill_the_sized_block(self, t_warmup, t_measure, interval):
        config = SimConfig(params=self.PARAMS, seed=5, t_warmup=t_warmup, t_measure=t_measure,
                           sample_interval=interval)
        new, old = simulate(config), _frozen_simulate(config)
        assert reports_equal(new, old)
        sized = Fraction(t_warmup + t_measure) // Fraction(interval) + 2
        assert 1 <= len(new.trajectory.times) <= sized

    def test_peak_is_the_sample_block(self):
        # figure 5 at N = 10 sampled every 1e-4 over a horizon of 1: 10,001 samples
        # of K+2 floats, where rows built in lists and then copied peaked at 24 MB
        import tracemalloc

        params = dataclasses.replace(FIG5, n_stations=10)
        config = SimConfig(params=params, seed=1, t_measure=1.0, sample_interval=1e-4)
        tracemalloc.start()
        try:
            samples = len(simulate(config).trajectory.times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert samples == 10_001
        assert peak <= 8 * (params.capacity_k + 2) * samples + (4 << 20)

    def test_counts_above_256_are_sized_as_objects(self, monkeypatch):
        # the list of N bike counts takes 8 N bytes while every count is one of
        # CPython's cached ints (K <= 256), and 36 N once a count may exceed 256
        n = 30_000
        monkeypatch.setattr(core, "_array_byte_limit", lambda: 36 * n - 1)
        config = SimConfig(params=dataclasses.replace(SMALL, n_stations=n, capacity_k=300),
                           seed=1, t_measure=1e-4)
        with pytest.raises(ConfigError, match=rf"^n_stations={n} .* need 36 N bytes"):
            simulate(config)
        simulate(dataclasses.replace(config, params=dataclasses.replace(config.params,
                                                                        capacity_k=256)))


class TestArrivalStations:
    @pytest.mark.parametrize("n", [2, 3, 1000, 2 ** 20, 2 ** 20 + 1, 10 ** 9 + 7])
    def test_block_index_is_int_of_the_product(self, n):
        # the ends of [0, 1), a half, the multiples of 1/n below 64/n and their
        # float neighbours (where truncation is closest to a station boundary),
        # and random draws
        edges = np.arange(1, 64) / n
        u = np.concatenate(([0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53],
                            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                            np.random.default_rng(n).random(simulator._BLOCK)))
        u = u[u < 1.0]
        stations = simulator._stations(u, n)
        assert stations == [int(v * n) for v in u.tolist()]
        assert all(type(i) is int for i in stations)
        assert max(stations) == n - 1


class TestInvariants:
    def test_conservation_and_capacity(self):
        config = SimConfig(params=SMALL, seed=11, t_warmup=2.0, t_measure=20.0)
        report = simulate(config)
        state = report.final_state
        assert sum(state.station_bikes) + state.riding == (
            SMALL.n_stations * SMALL.capacity_c
        )
        assert all(0 <= k <= SMALL.capacity_k for k in state.station_bikes)
        state.validate(SMALL)

    def test_walker_budget_accounting(self):
        # every customer who started walking either rented, abandoned, or is
        # still in flight at the end
        config = SimConfig(params=SMALL, seed=13, t_measure=30.0)
        ec = simulate(config).event_counts
        assert ec["walk_starts"] == (ec["abandonments"] + ec["walk_rentals"]
                                     + ec["walkers_in_flight"])
        assert ec["rentals"] >= ec["walk_rentals"]

    def test_omega_zero_abandons_immediately(self):
        # a one-bike-per-station system under heavy load with no walking:
        # empty stations must produce abandonments and never walkers
        params = SystemParams(lam=5.0, mu=1.0, gamma=1.0, omega=0, capacity_c=1,
                              capacity_k=2, n_stations=20, delta=0.1)
        ec = simulate(SimConfig(params=params, seed=3, t_measure=20.0)).event_counts
        assert ec["abandonments"] > 0
        assert ec["walk_starts"] == 0
        assert ec["walkers_in_flight"] == 0

    def test_arrival_rate_sanity(self):
        # observed arrivals within 4 standard deviations of the Poisson count
        config = SimConfig(params=SMALL, seed=29, t_measure=50.0)
        ec = simulate(config).event_counts
        expected = SMALL.n_stations * SMALL.lam * 50.0
        assert abs(ec["arrivals"] - expected) < 4.0 * np.sqrt(expected)

    def test_state_validation_catches_breakage(self):
        state = SimState(station_bikes=[1] * SMALL.n_stations, walkers=[],
                         riding=0, clock=0.0)
        with pytest.raises(InvariantViolationError):
            state.validate(SMALL)  # 50 bikes parked, 100 expected

    def test_walker_record_bounds(self):
        state = SimState(station_bikes=[2] * 50, walkers=[Walker(0, 5)],
                         riding=0, clock=0.0)
        with pytest.raises(InvariantViolationError):
            state.validate(SMALL)  # budget 5 > omega = 2


class TestMeasurement:
    def test_time_average_on_simplex(self):
        report = simulate(SimConfig(params=SMALL, seed=5, t_warmup=1.0, t_measure=10.0))
        assert report.time_avg_measure.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(report.time_avg_measure >= 0.0)

    def test_trajectory_starts_at_all_c(self):
        report = simulate(SimConfig(params=SMALL, seed=5, t_measure=2.0,
                                    sample_interval=0.5))
        traj = report.trajectory
        assert traj.times[0] == 0.0
        g = np.zeros(SMALL.capacity_k + 1)
        g[SMALL.capacity_c] = 1.0
        assert np.array_equal(traj.states[0], g)
        assert traj.times[-1] == pytest.approx(2.0)

    def test_joint_counts_total_time(self):
        config = SimConfig(params=SMALL, seed=7, t_warmup=1.0, t_measure=6.0)
        report = simulate(config)
        assert report.joint_counts.sum() == pytest.approx(6.0, rel=1e-9)

    def test_joint_marginals_match_single_station_average(self):
        # the joint occupancy marginal of station 0 is itself a time average;
        # with exchangeable stations it should sit near the population one
        config = SimConfig(params=SMALL, seed=19, t_warmup=5.0, t_measure=400.0)
        report = simulate(config)
        joint = report.joint_counts / report.joint_counts.sum()
        marginal = joint.sum(axis=1)
        assert np.max(np.abs(marginal - report.time_avg_measure)) < 0.1

    def test_stationary_agreement_small(self):
        params = dataclasses.replace(SMALL, n_stations=100)
        reference = solve_fixed_point(params)
        config = SimConfig(params=params, seed=23, t_warmup=100.0, t_measure=400.0)
        report = simulate(config)
        budget = 5.0 / np.sqrt(params.n_stations)
        assert np.max(np.abs(report.time_avg_measure - reference.p)) < budget


class TestIndependence:
    def test_statistic_small_at_moderate_n(self):
        config = SimConfig(params=SMALL, seed=31, t_warmup=10.0, t_measure=300.0)
        stat = independence_statistic(simulate(config))
        assert stat < 0.05

    def test_two_station_system_more_correlated(self):
        lam = SMALL.lam
        big = dataclasses.replace(SMALL, n_stations=100)
        tiny = dataclasses.replace(SMALL, n_stations=2)
        cfg = dict(seed=37, t_warmup=50.0 / lam, t_measure=600.0 / lam)
        stat_big = independence_statistic(simulate(SimConfig(params=big, **cfg)))
        stat_tiny = independence_statistic(simulate(SimConfig(params=tiny, **cfg)))
        assert stat_tiny > stat_big

    def test_empty_measurement_rejected(self):
        config = SimConfig(params=SMALL, seed=1, t_measure=1.0)
        report = simulate(config)
        hollow = dataclasses.replace(report, joint_counts=np.zeros_like(report.joint_counts))
        with pytest.raises(EmptyMeasurementError):
            independence_statistic(hollow)


class TestEmpiricalVsOde:
    def test_requires_sampling(self):
        with pytest.raises(ConfigError):
            empirical_vs_ode(SimConfig(params=SMALL, seed=1, t_measure=1.0))

    def test_gap_reasonable(self):
        config = SimConfig(params=FIG5, seed=41, t_measure=50.0 / FIG5.lam,
                           sample_interval=0.05)
        gap = empirical_vs_ode(config)
        assert 0.0 < gap < 0.2

    def test_gap_shrinks_with_n(self):
        lam = FIG5.lam
        gaps = []
        for n in (100, 400, 1600):
            params = dataclasses.replace(FIG5, n_stations=n)
            runs = [empirical_vs_ode(SimConfig(params=params, seed=s,
                                               t_measure=30.0 / lam,
                                               sample_interval=0.1))
                    for s in (1, 2, 3)]
            gaps.append(float(np.median(runs)))
        assert gaps[0] > gaps[1] > gaps[2]


class TestExport:
    def test_report_json(self, tmp_path):
        import json

        config = SimConfig(params=SMALL, seed=3, t_warmup=0.5, t_measure=2.0)
        report = simulate(config)
        path = tmp_path / "report.json"
        report.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["params"] == SMALL.to_dict()
        assert payload["seed"] == 3
        assert len(payload["time_avg_measure"]) == SMALL.capacity_k + 1
        assert payload["event_counts"]["arrivals"] > 0

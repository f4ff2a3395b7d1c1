"""Constant simulator inputs for physics tests that drive `simulate`.

Weather, schedules and signals hold the same values at every 15-minute
sample: no irradiance, nobody present, lights off, HVAC off (heating
setpoint 0 C, cooling setpoint 100 C) and only the chosen windows open,
so a test controls every flux term that reaches the zones.
"""

from __future__ import annotations

from datetime import datetime

import numpy as np

from hvforecast.building_sim import (
    WINDOW_ZONES,
    ZONE_COUNT,
    ExcitationSignals,
    ScheduleSet,
    WeatherSeries,
    make_timestamps,
)


def constant_inputs(n, t_out, w_out=0.0, equipment_w=0.0,
                    open_windows=()):
    """Return (weather, schedules, signals) for `n` samples.

    `equipment_w` is one gain for every zone or one per zone;
    `open_windows` lists the window slots (0..3) that stay open.
    """
    zeros = np.zeros(n)
    weather = WeatherSeries(
        make_timestamps(datetime(2021, 1, 4), n), np.full(n, t_out),
        np.full(n, 50.0), np.full(n, w_out), zeros.copy(), zeros.copy())
    schedules = ScheduleSet(
        occupancy=np.zeros((n, ZONE_COUNT)),
        equipment_w=np.broadcast_to(
            np.asarray(equipment_w, dtype=float), (n, ZONE_COUNT)).copy(),
        lighting_on=zeros.copy(), holiday=zeros.copy())
    windows = np.zeros((n, len(WINDOW_ZONES)), dtype=np.int64)
    windows[:, list(open_windows)] = 1
    signals = ExcitationSignals(
        sp_heat_c=np.zeros((n, ZONE_COUNT)),
        sp_cool_c=np.full((n, ZONE_COUNT), 100.0), window_open=windows)
    return weather, schedules, signals

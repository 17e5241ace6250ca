// Package device provides Digibox's library of 20 mock devices —
// sensors, actuators, and trackers spanning the paper's application
// domains (smart spaces, supply-chain logistics, urban sensing).
//
// Each device is a digi.Kind: a model schema (Fig. 3), an optional
// event-generator Loop (Fig. 4 top), and a simulation handler Sim
// (Fig. 4 bottom) that derives status from intent — honouring the
// simulated actuation delay of §6 — and publishes the device's status
// message. Event generation is configurable per instance through meta
// config keys (interval_ms, seed, plus device-specific ranges), so a
// scene can also run every sensor unmanaged and drive it entirely from
// scene logic.
package device

import (
	"time"

	"repro/internal/digi"
)

// All returns every device kind in the library.
func All() []*digi.Kind {
	return []*digi.Kind{
		NewOccupancy(),
		NewUnderdesk(),
		NewLamp(),
		NewFan(),
		NewHVAC(),
		NewThermostat(),
		NewTemperatureSensor(),
		NewHumiditySensor(),
		NewCO2Sensor(),
		NewSmokeDetector(),
		NewDoorLock(),
		NewWindowSensor(),
		NewCamera(),
		NewSmartPlug(),
		NewEnergyMeter(),
		NewAirQuality(),
		NewNoiseSensor(),
		NewGPSTracker(),
		NewCargoSensor(),
		NewLeakSensor(),
	}
}

// RegisterAll installs the whole library into a registry.
func RegisterAll(reg *digi.Registry) error {
	for _, k := range All() {
		if err := reg.Register(k); err != nil {
			return err
		}
	}
	return nil
}

// walk advances a value by a bounded random step, clamped to
// [min, max] — the canonical sensor-reading generator. Under an
// injected "outlier" fault mode (chaos engine) the reading
// occasionally spikes out of the configured range: to the meta config
// fault_value if set, else one full range above max.
func walk(c *digi.Ctx, cur, min, max, step float64) float64 {
	if c.FaultMode() == "outlier" && rare(c, c.ConfigFloat("fault_prob", 0.5)) {
		spike := max + (max - min)
		if v := c.ConfigFloat("fault_value", 0); v != 0 {
			spike = v
		}
		return float64(int(spike*100)) / 100
	}
	next := cur + (c.Rand.Float64()*2-1)*step
	if next < min {
		next = min
	}
	if next > max {
		next = max
	}
	// Round to 2 decimals so models stay readable and diffs small.
	return float64(int(next*100)) / 100
}

// rare returns true with the given probability per tick.
func rare(c *digi.Ctx, prob float64) bool {
	return c.Rand.Float64() < prob
}

// actuate applies the configured actuation delay before a status
// change takes effect, modelling real device latency (§6). It returns
// false if the digi stopped while waiting.
func actuate(c *digi.Ctx) bool {
	return c.Sleep(c.ActuationDelay())
}

// defaultTick is the library-wide default loop interval; instances
// override with meta interval_ms.
const defaultTick = 500 * time.Millisecond

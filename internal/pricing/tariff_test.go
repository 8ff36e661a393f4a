package pricing

import (
	"testing"
	"time"

	"edr/internal/sim"
)

func baseTariff() Tariff {
	return Tariff{
		Name:            "test",
		BaseCentsPerKWh: 3,
		PeakCentsPerKWh: 15,
		PeakStartHour:   17,
		PeakEndHour:     22,
	}
}

func at(hour int) time.Time {
	return time.Date(2013, 9, 23, hour, 30, 0, 0, time.UTC)
}

func TestTariffPeakWindow(t *testing.T) {
	tr := baseTariff()
	cases := map[int]float64{
		0: 3, 12: 3, 16: 3,
		17: 15, 19: 15, 21: 15,
		22: 3, 23: 3,
	}
	for hour, want := range cases {
		if got := tr.At(at(hour)); got != want {
			t.Errorf("At(%02d:30) = %g, want %g", hour, got, want)
		}
	}
}

func TestTariffWrapsMidnight(t *testing.T) {
	tr := baseTariff()
	tr.PeakStartHour, tr.PeakEndHour = 22, 6
	for hour, want := range map[int]float64{21: 3, 22: 15, 23: 15, 0: 15, 5: 15, 6: 3, 12: 3} {
		if got := tr.At(at(hour)); got != want {
			t.Errorf("wrap At(%02d:30) = %g, want %g", hour, got, want)
		}
	}
}

func TestTariffUTCOffset(t *testing.T) {
	tr := baseTariff()
	tr.UTCOffsetHours = 8 // local evening = UTC morning
	// UTC 10:30 → local 18:30 (peak).
	if got := tr.At(at(10)); got != 15 {
		t.Fatalf("offset peak = %g, want 15", got)
	}
	if got := tr.At(at(18)); got != 3 {
		t.Fatalf("offset off-peak = %g, want 3", got)
	}
}

func TestTariffValidate(t *testing.T) {
	good := baseTariff()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.BaseCentsPerKWh = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero base accepted")
	}
	bad = good
	bad.PeakCentsPerKWh = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("peak below base accepted")
	}
	bad = good
	bad.PeakStartHour = 25
	if err := bad.Validate(); err == nil {
		t.Fatal("bad peak hour accepted")
	}
}

func TestSchedulePricesAt(t *testing.T) {
	s := Schedule{
		baseTariff(),
		{Name: "b", BaseCentsPerKWh: 5, PeakCentsPerKWh: 20, PeakStartHour: 9, PeakEndHour: 12},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	prices := s.PricesAt(at(10)) // first off-peak, second in peak
	if prices[0] != 3 || prices[1] != 20 {
		t.Fatalf("PricesAt = %v", prices)
	}
}

func TestScheduleValidateEmpty(t *testing.T) {
	if err := (Schedule{}).Validate(); err == nil {
		t.Fatal("empty schedule accepted")
	}
}

func TestWorldScheduleSpreadsPeaks(t *testing.T) {
	s := WorldSchedule(8)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s) != 8 {
		t.Fatalf("regions = %d", len(s))
	}
	// At any instant some regions must be off-peak: the cheapest price in
	// the snapshot is the base rate around the clock.
	for hour := 0; hour < 24; hour++ {
		prices := s.PricesAt(at(hour))
		minP, maxP := prices[0], prices[0]
		for _, p := range prices {
			if p < minP {
				minP = p
			}
			if p > maxP {
				maxP = p
			}
		}
		if minP != 3 {
			t.Fatalf("hour %d: no off-peak region (min %g)", hour, minP)
		}
		// During most of the day someone is peaking (5h window × 8 regions
		// spread over 24h ⇒ always at least one in peak).
		if maxP != 15 {
			t.Fatalf("hour %d: no peak region (max %g)", hour, maxP)
		}
	}
}

func TestWorldScheduleBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WorldSchedule(0) did not panic")
		}
	}()
	WorldSchedule(0)
}

func TestTariffDeterministicWithSim(t *testing.T) {
	// Tariffs are pure functions of time; read at the simulator's fixed
	// epoch they give reproducible dynamic-pricing rounds.
	s := WorldSchedule(4)
	a := s.PricesAt(sim.Epoch)
	b := s.PricesAt(sim.Epoch)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same instant, different prices")
		}
	}
}

package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"choreo/internal/api"
)

// TestPlaceRefusesOverCapApp pins the offline path of the task and
// transfer caps: `choreo place` refuses an application over either with
// the named error and the file it came from.
func TestPlaceRefusesOverCapApp(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v interface{}) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	rates := write("rates.json", api.Env{RatesMbps: [][]float64{{4000, 900}, {900, 4000}}})
	wide := api.AppSpec{Name: "wide", CPU: make([]float64, api.MaxTasks+1)}
	for i := range wide.CPU {
		wide.CPU[i] = 1
	}
	chatty := api.AppSpec{Name: "chatty", CPU: []float64{1, 1}, TransfersMB: make([][3]float64, api.MaxTransfers+1)}
	for i := range chatty.TransfersMB {
		chatty.TransfersMB[i] = [3]float64{0, 1, 1}
	}
	for _, tc := range []struct {
		spec api.AppSpec
		want error
	}{
		{wide, api.ErrTooManyTasks},
		{chatty, api.ErrTooManyTransfers},
	} {
		app := write(tc.spec.Name+".json", tc.spec)
		err := runPlace([]string{"-rates", rates, "-app", app})
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), app) {
			t.Errorf("%s: runPlace error = %v, want %v naming %s", tc.spec.Name, err, tc.want, app)
		}
	}
}

// TestPlaceRefusesBadTransfers pins that `choreo place` refuses, naming
// the file, a transfer with a negative size or a fractional task index,
// and still places one of size zero.
func TestPlaceRefusesBadTransfers(t *testing.T) {
	dir := t.TempDir()
	write := func(name, data string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	rates := write("rates.json", `{"ratesMbps":[[4000,900],[900,4000]]}`)
	for _, tc := range []struct{ name, app, want string }{
		{"negative", `{"cpu":[1,1],"transfersMB":[[0,1,-500]]}`, "size must not be negative"},
		{"fractional", `{"cpu":[1,1,1],"transfersMB":[[0.9,1.7,100]]}`, "task indices must be integers"},
		{"zero", `{"cpu":[1,1],"transfersMB":[[0,1,0]]}`, ""},
	} {
		app := write(tc.name+".json", tc.app)
		err := runPlace([]string{"-rates", rates, "-app", app})
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: runPlace error = %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), app) {
			t.Errorf("%s: runPlace error = %v, want %q naming %s", tc.name, err, tc.want, app)
		}
	}
}

package repro

import (
	"reflect"
	"testing"
)

// cacheKeyExcluded names the Options fields cacheBaseKey deliberately leaves
// out. Each may only be a field that cannot change the built tree.
var cacheKeyExcluded = map[string]bool{}

// TestCacheKeyCoversEveryOption walks Options by reflection: setting any
// field to a non-default value must change cacheBaseKey, and setting an
// excluded field must not. A new option therefore cannot silently alias
// cache entries built under different settings.
func TestCacheKeyCoversEveryOption(t *testing.T) {
	sys, err := NewSystem(DemoDataset(200, 1), Config{
		WorkloadSQL: DemoWorkloadSQL(200, 2),
		Intervals:   DemoIntervals(),
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery("SELECT * FROM ListProperty WHERE price BETWEEN 200000 AND 400000")
	if err != nil {
		t.Fatal(err)
	}
	base := sys.cacheBaseKey(q, CostBased, Options{})
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var opts Options
		v := reflect.ValueOf(&opts).Elem().Field(i)
		switch {
		case !f.IsExported():
			t.Fatalf("Options.%s is unexported; the test cannot set it", f.Name)
		case v.Kind() == reflect.Int:
			v.SetInt(7)
		case v.Kind() == reflect.Float64:
			v.SetFloat(0.37)
		case v.Kind() == reflect.Bool:
			v.SetBool(true)
		case f.Type == reflect.TypeOf([]string(nil)):
			v.Set(reflect.ValueOf([]string{"price"}))
		default:
			t.Fatalf("Options.%s has type %s; teach the test a non-default value for it", f.Name, f.Type)
		}
		changed := sys.cacheBaseKey(q, CostBased, opts) != base
		switch {
		case cacheKeyExcluded[f.Name] && changed:
			t.Errorf("Options.%s is excluded from the cache key but changes it", f.Name)
		case !cacheKeyExcluded[f.Name] && !changed:
			t.Errorf("Options.%s does not reach the cache key: entries built under different values would alias", f.Name)
		}
	}
	for name := range cacheKeyExcluded {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("exclusion list names Options.%s, which does not exist", name)
		}
	}
}

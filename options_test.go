package complx

import (
	"reflect"
	"testing"
)

// engineInternalCoreOptions lists the core.Options fields that the facade
// deliberately does not expose, each with the reason. Every other
// core.Options field must be forwarded by coreOptions —
// TestCoreOptionsForwarding fails when a new core field is neither
// forwarded nor recorded here.
var engineInternalCoreOptions = map[string]string{
	"Schedule":           "derived from Options.Algorithm (AlgSimPL), not a facade knob",
	"ProjectionRefine":   "constructed by the facade from Options.ProjectionDP",
	"NoMacroLambdaScale": "paper §5 ablation knob, exercised via internal/core only",
	"Checkpoint":         "constructed by the facade from Options.Checkpoint (a chkpt.Manager, wired in PlaceContext, not coreOptions)",
	"Resume":             "loaded by the facade from the checkpoint directory when Options.Checkpoint.Resume is set",
}

// TestCoreOptionsForwarding is the contract test for the single
// Options→core.Options conversion point: it fills every facade Options
// field with a non-zero value, runs coreOptions, and requires each
// core.Options field to be either non-zero (forwarded) or explicitly
// allowlisted above. Adding a field to core.Options without updating
// coreOptions or the allowlist fails this test.
func TestCoreOptionsForwarding(t *testing.T) {
	var opt Options
	fillNonZero(t, reflect.ValueOf(&opt).Elem())
	got := reflect.ValueOf(coreOptions(opt))
	typ := got.Type()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if _, internal := engineInternalCoreOptions[f.Name]; internal {
			if !got.Field(i).IsZero() {
				t.Errorf("core.Options.%s is allowlisted as engine-internal but coreOptions sets it; remove the allowlist entry", f.Name)
			}
			continue
		}
		if got.Field(i).IsZero() {
			t.Errorf("core.Options.%s is not forwarded by coreOptions; forward the matching facade option or add an engineInternalCoreOptions entry explaining why not", f.Name)
		}
	}
	// Reject stale allowlist entries so the map tracks core.Options.
	for name := range engineInternalCoreOptions {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("engineInternalCoreOptions lists %q, which is no longer a core.Options field", name)
		}
	}
}

// fillNonZero sets every field of a struct value to a non-zero value of its
// kind so that a pure field-copy is detectable as non-zero output.
func fillNonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(3)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(3)
		case reflect.Float32, reflect.Float64:
			f.SetFloat(0.5)
		case reflect.String:
			f.SetString("x")
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		case reflect.Func:
			f.Set(reflect.MakeFunc(f.Type(), func([]reflect.Value) []reflect.Value {
				return nil
			}))
		case reflect.Ptr:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Struct:
			fillNonZero(t, f)
		default:
			t.Fatalf("fillNonZero: unhandled kind %v for field %s", f.Kind(), v.Type().Field(i).Name)
		}
	}
}

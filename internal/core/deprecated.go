package core

// The pipelined receiver is gone and DecodeBurst is always serial. These
// three no-op stubs exist only so that the benchmark module (bench/), which
// still calls them, compiles.

// PipelineConfig configures nothing.
//
// Deprecated: DecodeBurst is always serial.
type PipelineConfig struct{}

// EnablePipeline does nothing.
//
// Deprecated: DecodeBurst is always serial.
func (r *Receiver) EnablePipeline(PipelineConfig) error { return nil }

// Close does nothing: a Receiver holds no resources.
//
// Deprecated: there is nothing to close.
func (r *Receiver) Close() error { return nil }

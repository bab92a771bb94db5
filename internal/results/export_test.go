package results

// ReferenceJSON exposes the encoding/json reference of the json emitter to
// the external tests, which encode real experiment datasets against it.
var ReferenceJSON = referenceJSON

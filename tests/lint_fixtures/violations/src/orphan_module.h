// Seeded [orphan-module] violation: a header no file outside tests/
// includes — library code that no program calls.
#ifndef FIXTURE_ORPHAN_MODULE_H_
#define FIXTURE_ORPHAN_MODULE_H_

namespace fixture {

int UnreachableHelper();

}  // namespace fixture

#endif  // FIXTURE_ORPHAN_MODULE_H_

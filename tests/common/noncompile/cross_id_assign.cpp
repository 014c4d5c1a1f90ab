// Expected-failure compile check: assigning one id family to another must
// not compile, even though SiteId and ClientId share a representation.
// Built by the noncompile_* ctest targets with WILL_FAIL — if this file
// ever compiles, the strong-id layer has regressed.
#include "common/strong_id.hpp"

int main() {
  rtdb::SiteId site{1};
  rtdb::ClientId client{2};
  site = client;  // must be a compile error
  return site.value();
}

struct A { int x; };
struct B { long y; };
char *s;
int helper(int v) { return v + 1; }
int (*fp)(int);
int main(void) {
	struct A a;
	void *bridge;
	s = "hello";
	bridge = (void*) &a;
	fp = helper;
	if (bridge != NULL && s != NULL) return fp(40);
	return 0;
}
